"""Seeded workload inputs, the CLI chain each one runs, and its output checks.

Every generator takes a seed and a size, writes the files the program will
see into a work directory and returns a Prepared workload: the steps to
time, the item count that throughput is measured in, the input properties
the program's behaviour depends on, and a check that inspects the outputs
once the steps have run.  Only generated files reach the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import accumulate
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from oracle import MARGIN, split_compound_oracle, tail_count_oracle

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
MARKER = "@@"
EXACT_TER_TOKENS = 7  # TER searches exactly when neither side is longer
DEFAULT_SEED = 1

SIZES = {
    "full": {
        "stems": 2400, "suffixes": 300, "mono_types": 50_000, "mono_tokens": 100_000,
        "zipf_tokens": 12_000, "repeat_share": 0.65, "types_tokens": 10_000,
        "segments": 360, "pairs": 6000, "oracle_sample": 150, "induce_sample": 24,
    },
    "tiny": {
        "stems": 200, "suffixes": 40, "mono_types": 3000, "mono_tokens": 5000,
        "zipf_tokens": 600, "repeat_share": 0.65, "types_tokens": 500,
        "segments": 15, "pairs": 300, "oracle_sample": 30, "induce_sample": 6,
    },
}

# Word shapes of the synthetic agglutinative vocabulary: (name, share of the
# composed types, stems per word, ends with a listed suffix).
SHAPE_MIX = (("suffixed", 0.35, 1, True), ("compound", 0.30, 2, False),
             ("compound+suffix", 0.25, 2, True), ("triple", 0.10, 3, False))
# Running-text types are drawn shape by shape in this cycle, so that every
# frequency tier has the same shape mix and the splitting cost of the most
# frequent types does not swing with the seed.
TEXT_SHAPES = ("suffixed", "compound", "compound+suffix", "stem", "suffixed", "compound",
               "triple", "compound+suffix", "suffixed", "compound")


Check = tuple[str, bool, str]  # (name, passed, detail)


@dataclass
class Step:
    name: str       # unique within the workload, e.g. "align-fused"
    kind: str       # the CLI command: induce, preprocess, align or evaluate
    argv: list[str]
    replay: dict | None = None  # files a traced run replays the splitters over


@dataclass
class Prepared:
    steps: list[Step]
    items: int
    properties: dict[str, float]
    setup_files: list[str]           # loaded by the set-up probe, in that order
    check: Callable[[], list[Check]]
    corrupt: dict[str, Callable[[], None]] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_lines(path: Path, sentences) -> None:
    path.write_text("".join(" ".join(s) + "\n" for s in sentences), encoding="utf-8")


def read_lines(path: Path) -> list[list[str]]:
    return [line.split(" ") if line else [] for line in
            path.read_text(encoding="utf-8").split("\n")[:-1]]


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi)))


def _distinct(rng: random.Random, count: int, lo: int, hi: int) -> list[str]:
    out: set[str] = set()
    while len(out) < count:
        out.add(_word(rng, lo, hi))
    return sorted(out)


def _sentences(rng: random.Random, tokens: list[str], lo: int = 8, hi: int = 20):
    out, k = [], 0
    while k < len(tokens):
        n = rng.randint(lo, hi)
        out.append(tokens[k:k + n])
        k += n
    return out


def _zipf_counts(types: int, tokens: int, offset: float = 30.0) -> list[int]:
    """Token count per rank: one each, the rest Zipf-Mandelbrot 1/(rank+offset).

    The offset keeps the few most frequent types from holding so many tokens
    that the seed's choice of them moves the splitting cost.
    """
    weights = [1.0 / (rank + 1 + offset) for rank in range(types)]
    total, extra = sum(weights), tokens - types
    counts = [1 + int(extra * w / total) for w in weights]
    for rank in range(tokens - sum(counts)):
        counts[rank] += 1
    return counts


def _marked_groups(sentence: list[str]) -> list[list[str]]:
    """Pieces of each input token in a marked output sentence."""
    groups, current = [], []
    for token in sentence:
        if token.endswith(MARKER):
            current.append(token[:-len(MARKER)])
        else:
            groups.append(current + [token])
            current = []
    if current:
        groups.append(current)
    return groups


def _read_inventory(path: Path) -> dict[str, int]:
    """member -> count from the compound TSV; lines without a tab are headers."""
    members = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if "\t" in line and not line.startswith("#"):
            member, count = line.split("\t")
            members[member] = int(count)
    return members


def _digest_check(seed: int, size: str, name: str, digest: str) -> list[Check]:
    """At the default seed and full size, the output must match the record."""
    if seed != DEFAULT_SEED or size != "full":
        return []
    recorded = json.loads((Path(__file__).parent / "digests.json").read_text())[name]
    return [("digest", digest == recorded, f"{digest} vs recorded {recorded}")]


# --- prep-zipf and prep-types ---------------------------------------------

def _lexicon(rng: random.Random, sz: dict) -> tuple[list[str], dict[str, str]]:
    suffixes = _distinct(rng, sz["suffixes"], 2, 4)
    stems = _distinct(rng, sz["stems"], 4, 9)
    shape = dict.fromkeys(stems, "stem")
    cum = list(accumulate(share for _, share, _, _ in SHAPE_MIX))
    while len(shape) < sz["mono_types"]:
        kind, _, parts, suffixed = rng.choices(SHAPE_MIX, cum_weights=cum)[0]
        word = "".join(rng.choice(stems) for _ in range(parts))
        if suffixed:
            word += rng.choice(suffixes)
        shape.setdefault(word, kind)
    return suffixes, shape


def _text_types(rng: random.Random, shape: dict[str, str], count: int) -> list[str]:
    pools: dict[str, list[str]] = {}
    for word in sorted(shape):
        pools.setdefault(shape[word], []).append(word)
    for pool in pools.values():
        rng.shuffle(pool)
    return [pools[TEXT_SHAPES[k % len(TEXT_SHAPES)]].pop() for k in range(count)]


def prepare_prep(seed: int, size: str, work: Path, distinct: bool) -> Prepared:
    sz = SIZES[size]
    rng = random.Random(f"prep/{seed}")
    suffixes, shape = _lexicon(rng, sz)
    vocabulary = sorted(shape)

    ranked = vocabulary[:]
    rng.shuffle(ranked)
    mono = ranked + rng.choices(
        ranked, weights=_zipf_counts(len(ranked), 2 * len(ranked)),
        k=sz["mono_tokens"] - len(ranked))
    rng.shuffle(mono)

    if distinct:
        text_tokens = _text_types(rng, shape, sz["types_tokens"])
    else:
        n_tokens = sz["zipf_tokens"]
        types = _text_types(rng, shape, round(n_tokens * (1 - sz["repeat_share"])))
        text_tokens = [w for w, n in zip(types, _zipf_counts(len(types), n_tokens))
                       for _ in range(n)]
    rng.shuffle(text_tokens)

    files = {k: work / f"{k}.txt" for k in ("mono", "suffixes", "text", "split")}
    compounds = work / "compounds.tsv"
    write_lines(files["mono"], _sentences(rng, mono))
    files["suffixes"].write_text("".join(s + "\n" for s in suffixes), encoding="utf-8")
    write_lines(files["text"], _sentences(rng, text_tokens))
    steps = [
        Step("induce", "induce", ["induce-suffixes", "--mono", str(files["mono"]),
                                  "-o", str(compounds)]),
        Step("preprocess", "preprocess",
             ["preprocess", "--mode", "cs+ss", "--suffixes", str(files["suffixes"]),
              "--compounds", str(compounds), "--marker", MARKER,
              "-i", str(files["text"]), "-o", str(files["split"])],
             replay={"input": str(files["text"]), "output": str(files["split"]),
                     "suffixes": str(files["suffixes"]), "compounds": str(compounds),
                     "marker": MARKER}),
    ]
    properties = {
        "mono_types": len(vocabulary),
        "mono_tokens": len(mono),
        "text_tokens": len(text_tokens),
        "repeat_share": 1 - len(set(text_tokens)) / len(text_tokens),
        "suffix_list_size": len(suffixes),
    }
    name = "prep-types" if distinct else "prep-zipf"
    check_rng = random.Random(f"check/{seed}")

    def check() -> list[Check]:
        from mtprep.pipeline import reconstruct
        from oracles import longest_suffix_oracle

        checks: list[Check] = []
        text_bytes = files["text"].read_bytes()
        output = read_lines(files["split"])
        restored = "".join(" ".join(s) + "\n" for s in reconstruct(output, MARKER))
        checks.append(("reconstruct", restored.encode("utf-8") == text_bytes,
                       "marked output joins back to the input byte for byte"))

        members = _read_inventory(compounds)
        properties["inventory_size"] = len(members)
        probe = check_rng.sample(sorted(members), sz["induce_sample"] // 2)
        probe += check_rng.sample(vocabulary, sz["induce_sample"] - len(probe))
        wrong = [w for w in probe if tail_count_oracle(w, vocabulary) != members.get(w, 0)]
        checks.append(("induce-oracle", not wrong,
                       f"{len(probe)} sampled words, wrong: {wrong[:3]}"))

        text = read_lines(files["text"])
        sample = set(check_rng.sample(sorted(set(text_tokens)), sz["oracle_sample"]))
        expected = {}
        for word in sample:
            pieces = []
            for part in split_compound_oracle(word, members, MARGIN):
                stem, suffix = longest_suffix_oracle(part, suffixes)
                pieces += [stem] if suffix is None else [stem, suffix]
            expected[word] = pieces
        mismatches, seen, shape_ok = [], 0, len(output) == len(text)
        for sentence, out in zip(text, output):
            groups = _marked_groups(out)
            if len(groups) != len(sentence):
                shape_ok = False
                continue
            for word, got in zip(sentence, groups):
                if word in expected:
                    seen += 1
                    if got != expected[word]:
                        mismatches.append((word, got, expected[word]))
        checks.append(("split-oracle", shape_ok and not mismatches and seen > 0,
                       f"{seen} sampled tokens, {len(mismatches)} differ "
                       f"{mismatches[:1]}"))
        n_out = sum(len(s) for s in output)
        properties["pieces_per_token"] = n_out / len(text_tokens)
        return checks + _digest_check(seed, size, name, sha256(files["split"].read_bytes()))

    def corrupt_split() -> None:
        """Move the boundary of every split token by one character."""
        def shift(sentence: list[str]) -> list[str]:
            out = sentence[:]
            for k in range(len(out) - 1):
                head = out[k]
                if head.endswith(MARKER) and len(head) > len(MARKER) + 1:
                    out[k] = head[:-len(MARKER) - 1] + MARKER
                    out[k + 1] = head[-len(MARKER) - 1] + out[k + 1]
            return out
        write_lines(files["split"], [shift(s) for s in read_lines(files["split"])])

    return Prepared(steps, len(text_tokens), properties,
                    [str(files["suffixes"]), str(compounds)], check,
                    {"split": corrupt_split})


# --- eval-mixed -------------------------------------------------------------

def _hypothesis(rng: random.Random, ref: list[str], draw: Callable[[], str]) -> list[str]:
    """The reference after block moves, substitutions and drops.

    Their number and the block length depend on the length alone, and a
    block lands at least two places away where the segment allows, so the
    seed moves only where they happen: greedy TER's cost then varies less
    from seed to seed.
    """
    hyp = ref[:]
    n = len(ref)
    length = 2 if n > 7 else 1
    for _ in range(max(1, n // 8)):
        i = rng.randrange(len(hyp) - length + 1)
        block = hyp[i:i + length]
        del hyp[i:i + length]
        far = [j for j in range(len(hyp) + 1) if abs(j - i) >= 2]
        j = rng.choice(far or [j for j in range(len(hyp) + 1) if j != i])
        hyp[j:j] = block
    for _ in range(n // 6):
        hyp[rng.randrange(len(hyp))] = draw()
    for _ in range(n // 10):
        del hyp[rng.randrange(len(hyp))]
    return hyp


def segment_lengths(segments: int) -> list[int]:
    """A fixed length mix: a fifth 3-7 tokens (exact TER), the rest 8-30."""
    short = segments // 5
    long_ = segments - short
    return [3 + k % 5 for k in range(short)] + [8 + (k * 22) // max(1, long_ - 1)
                                                for k in range(long_)]


def prepare_eval(seed: int, size: str, work: Path) -> Prepared:
    sz = SIZES[size]
    rng = random.Random(f"eval/{seed}")
    vocab = _distinct(rng, 3000, 2, 9)
    rng.shuffle(vocab)
    cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(vocab))))

    def draw() -> str:
        return rng.choices(vocab, cum_weights=cum)[0]

    lengths = segment_lengths(sz["segments"])
    rng.shuffle(lengths)
    refs = [[draw() for _ in range(n)] for n in lengths]
    hyps = [_hypothesis(rng, ref, draw) for ref in refs]
    hyp_path, ref_path = work / "hyp.txt", work / "ref.txt"
    write_lines(hyp_path, hyps)
    write_lines(ref_path, refs)
    report = work / "evaluate.stdout"
    steps = [Step("evaluate", "evaluate", ["evaluate", "--hyp", str(hyp_path),
                                           "--ref", str(ref_path), "--report", "json"])]
    exact = [k for k, (h, r) in enumerate(zip(hyps, refs))
             if max(len(h), len(r)) <= EXACT_TER_TOKENS]
    properties = {
        "segments": len(refs),
        "exact_segments": len(exact),
        "greedy_segments": len(refs) - len(exact),
        "mean_ref_tokens": sum(lengths) / len(lengths),
        "exact_share": len(exact) / len(refs),
    }

    def check() -> list[Check]:
        from mtprep.metrics import sentence_ter
        from oracles import bleu_oracle, exhaustive_ter_edits, nist_oracle, wer_oracle

        scores = json.loads(report.read_text(encoding="utf-8"))
        checks = []
        for metric, oracle in (("bleu", bleu_oracle), ("nist", nist_oracle)):
            want = oracle(hyps, refs)
            checks.append((metric + "-oracle", abs(scores[metric] - want) < 1e-9,
                           f"{scores[metric]!r} vs oracle {want!r}"))
        wrong = [k for k in exact if sentence_ter(hyps[k], refs[k]).total_edits
                 != exhaustive_ter_edits(hyps[k], refs[k])]
        checks.append(("exact-ter-oracle", not wrong,
                       f"{len(exact)} exact segments, differing: {wrong[:5]}"))
        wer = wer_oracle(hyps, refs)
        checks.append(("ter<=wer", scores["ter"] <= wer + 1e-12,
                       f"TER {scores['ter']:.6f}, WER {wer:.6f}"))
        ter = scores["components"]["ter"]
        canonical = repr((scores["bleu"], scores["nist"], scores["ter"],
                          ter["edits"], ter["shifts"], ter["ref_length"]))
        return checks + _digest_check(seed, size, "eval-mixed",
                                      sha256(canonical.encode("utf-8")))

    def corrupt_score() -> None:
        scores = json.loads(report.read_text(encoding="utf-8"))
        scores["bleu"] *= 1.001
        report.write_text(json.dumps(scores), encoding="utf-8")

    return Prepared(steps, len(refs), properties, [], check, {"score": corrupt_score})


# --- align-synth -------------------------------------------------------------

_F1_LINE = re.compile(r"precision=(\S+) recall=(\S+) f1=(\S+)")


def _prf(predicted: list[set], gold: list[set]) -> tuple[float, float, float]:
    inter = sum(len(p & g) for p, g in zip(predicted, gold))
    n_pred, n_gold = sum(map(len, predicted)), sum(map(len, gold))
    precision = inter / n_pred if n_pred else 1.0
    recall = inter / n_gold if n_gold else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _links(line: str) -> set[tuple[int, int]]:
    return {tuple(map(int, pair.split("-"))) for pair in line.split()}


def prepare_align(seed: int, size: str, work: Path) -> Prepared:
    from mtprep.synth import build_benchmark

    bench = build_benchmark(sentences=SIZES[size]["pairs"], seed=seed)
    files = {k: work / f"{k}.txt" for k in
             ("src_fused", "tgt", "gold_fused", "gold_split", "suffixes", "split")}
    expected_split = work / "expected_split.txt"
    compounds = work / "compounds.tsv"
    write_lines(files["src_fused"], bench.src_fused)
    write_lines(files["tgt"], bench.tgt)
    write_lines(expected_split, bench.src_split)
    for side, gold in (("fused", bench.gold_fused), ("split", bench.gold_split)):
        write_lines(files[f"gold_{side}"],
                    [[f"{i}-{j}" for i, j in sorted(links)] for links in gold])
    files["suffixes"].write_text("".join(s + "\n" for s in bench.suffixes), encoding="utf-8")

    steps = [
        Step("induce", "induce", ["induce-suffixes", "--mono", str(files["src_fused"]),
                                  "-o", str(compounds)]),
        Step("preprocess", "preprocess",
             ["preprocess", "--mode", "cs+ss", "--suffixes", str(files["suffixes"]),
              "--compounds", str(compounds), "-i", str(files["src_fused"]),
              "-o", str(files["split"])],
             replay={"input": str(files["src_fused"]), "output": str(files["split"]),
                     "suffixes": str(files["suffixes"]), "compounds": str(compounds),
                     "marker": None}),
    ]
    for side, src in (("fused", files["src_fused"]), ("split", files["split"])):
        steps.append(Step(f"align-{side}", "align",
                          ["align", "--src", str(src), "--tgt", str(files["tgt"]),
                           "--gold", str(files[f"gold_{side}"])]))
    properties = {
        "pairs": len(bench.tgt),
        "stems": len(bench.stems),
        "suffix_list_size": len(bench.suffixes),
        "src_tokens_fused": sum(map(len, bench.src_fused)),
        "src_tokens_split": sum(map(len, bench.src_split)),
    }

    def check() -> list[Check]:
        checks = [("split==src_split", files["split"].read_bytes() == expected_split.read_bytes(),
                   "cs+ss output equals the intended segmentation")]
        properties["inventory_size"] = len(_read_inventory(compounds))
        f1 = {}
        record = b""
        for side in ("fused", "split"):
            out = (work / f"align-{side}.stdout").read_text(encoding="utf-8")
            err = (work / f"align-{side}.stderr").read_text(encoding="utf-8")
            record += out.encode("utf-8") + err.encode("utf-8")
            match = _F1_LINE.search(err)
            if match is None:
                checks.append((f"f1-{side}", False, "no precision/recall/f1 line"))
                continue
            printed = match.groups()
            gold = getattr(bench, f"gold_{side}")
            want = tuple(f"{v:.4f}" for v in _prf([_links(line) for line in out.split("\n")[:-1]],
                                                  [set(g) for g in gold]))
            checks.append((f"f1-{side}", printed == want,
                           f"printed {printed}, recomputed {want}"))
            f1[side] = float(printed[2])
        if len(f1) == 2:
            checks.append(("f1_split>f1_fused", f1["split"] > f1["fused"],
                           f"split {f1['split']:.4f} vs fused {f1['fused']:.4f}"))
        return checks + _digest_check(seed, size, "align-synth", sha256(record))

    def corrupt_split() -> None:
        lines = read_lines(files["split"])
        lines[0] = lines[0][1:] + lines[0][:1]
        write_lines(files["split"], lines)

    return Prepared(steps, len(bench.tgt), properties,
                    [str(files["suffixes"]), str(compounds)], check,
                    {"split": corrupt_split})


WORKLOADS: dict[str, Callable[[int, str, Path], Prepared]] = {
    "prep-zipf": lambda seed, size, work: prepare_prep(seed, size, work, distinct=False),
    "prep-types": lambda seed, size, work: prepare_prep(seed, size, work, distinct=True),
    "eval-mixed": prepare_eval,
    "align-synth": prepare_align,
}
