"""Outside-in per-layer tracing for the worker.

The tracer wraps the public functions the CLI calls, in the namespaces the
CLI calls them from, so nothing under src/ changes.  Every wrapped call
records a span (name, parent step, depth, start, end); spans stay in memory
and are written out when the run ends.  Counts are taken at the same
boundaries.

The splitters and the marker run once per token.  Wrapping them would cost
more than they do at a cheap enough implementation, so their times come
from replaying the same calls over the same input, outside the timed
steps, after each traced iteration.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (attribute in mtprep.cli, span name)
CLI_CALLS = (
    ("read_token_corpus", "corpus.read"),
    ("write_token_corpus", "corpus.write"),
    ("build_vocabulary", "corpus.vocab"),
    ("induce_compound_suffixes", "compounds.induce"),
    ("save_compound_suffixes", "compounds.save"),
    ("load_compound_suffixes", "compounds.load"),
    ("load_suffix_list", "suffixes.load"),
    ("preprocess", "pipeline.preprocess"),
    ("evaluate", "metrics.evaluate"),
    ("train_em", "aligner.train"),
    ("align_corpus", "aligner.viterbi"),
    ("corpus_alignment_f1", "aligner.f1"),
    ("parse_alignment", "aligner.parse"),
    ("format_alignment", "aligner.format"),
)
# (attribute in mtprep.metrics, span name): what metrics.evaluate calls
METRIC_CALLS = (("bleu", "bleu.score"), ("nist", "nist.score"), ("ter", "ter.score"))

# Span name -> per-layer metric holding the summed span time.
TIMED = {
    "corpus.read": "corpus.read_s",
    "corpus.write": "corpus.write_s",
    "corpus.vocab": "corpus.vocab_s",
    "compounds.load": "compounds.load_s",
    "compounds.induce": "compounds.induce_s",
    "suffixes.load": "suffixes.load_s",
    "pipeline.preprocess": "pipeline.preprocess_s",
    "bleu.score": "bleu.score_s",
    "nist.score": "nist.score_s",
    "ter.score": "ter.score_s",
    "aligner.train": "aligner.train_s",
    "aligner.viterbi": "aligner.viterbi_s",
    "aligner.f1": "aligner.f1_s",
}

# Exact TER applies when both sides have at most this many tokens; read from
# the program when it still exposes the constant.
DEFAULT_EXACT_LIMIT = 7


class Tracer:
    """Spans and counts for the traced phase of one worker run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, float, float]] = []
        self.missing: list[str] = []
        self.step = ""
        self._depth = 0
        self._counts: dict[str, float] = defaultdict(float)
        self._segment_s: list[float] = []
        self._mark = 0
        self._exact_limit = DEFAULT_EXACT_LIMIT

    def install(self) -> None:
        import mtprep.cli as cli
        import mtprep.metrics as metrics

        ter_module = sys.modules["mtprep.metrics.ter"]
        self._exact_limit = getattr(ter_module, "EXACT_SEARCH_LIMIT", DEFAULT_EXACT_LIMIT)
        for attr, name in CLI_CALLS:
            self._wrap(cli, attr, name)
        for attr, name in METRIC_CALLS:
            self._wrap(metrics, attr, name)
        self._wrap(ter_module, "sentence_ter", "ter.segment")

    def _wrap(self, owner, attr: str, name: str) -> None:
        inner = getattr(owner, attr, None)
        if inner is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans = self.spans

        def traced(*args, **kwargs):
            depth = self._depth
            self._depth = depth + 1
            start = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth = depth
            spans.append((name, self.step, depth, start, end))
            self._count(name, args, result, end - start)
            return result

        setattr(owner, attr, traced)

    def _count(self, name: str, args: tuple, result, seconds: float) -> None:
        counts = self._counts
        if name == "corpus.read":
            counts["corpus.tokens_in"] += sum(len(s) for s in result)
        elif name == "compounds.load":
            counts["compounds.inventory_size"] = len(result)
        elif name == "ter.segment":
            hyp, ref = args[0], args[1]
            kind = "exact" if max(len(hyp), len(ref)) <= self._exact_limit else "greedy"
            counts[f"ter.{kind}_segments"] += 1
            counts[f"ter.{kind}_s"] += seconds
            counts["ter.shifts"] += result.shifts
            self._segment_s.append(seconds)
        elif name == "aligner.train":
            counts["aligner.iterations"] += len(result.log_likelihoods)
            counts["aligner.table_entries"] += sum(len(row) for row in result.probs.values())
        elif name == "aligner.f1":
            side = "split" if self.step.endswith("split") else "fused"
            counts[f"aligner.f1_{side}"] = result.f1

    def iteration_metrics(self, steps: list[dict], replays: list[dict]) -> dict[str, float]:
        """Per-layer metrics of the iteration that just ran, then reset."""
        spans = self.spans[self._mark:]
        self._mark = len(self.spans)
        metrics = dict.fromkeys(TIMED.values(), 0.0)
        top_level: dict[str, float] = defaultdict(float)
        for name, step, depth, start, end in spans:
            if name in TIMED:
                metrics[TIMED[name]] += end - start
            if depth == 0:
                top_level[step] += end - start
        metrics["cli.self_s"] = sum(s["wall_s"] - top_level[s["name"]] for s in steps)

        counts = self._counts
        for key in ("corpus.tokens_in", "compounds.inventory_size", "ter.exact_segments",
                    "ter.greedy_segments", "ter.exact_s", "ter.greedy_s", "ter.shifts",
                    "aligner.table_entries", "aligner.f1_fused", "aligner.f1_split"):
            metrics[key] = counts.get(key, 0)
        iterations = counts.get("aligner.iterations", 0)
        metrics["aligner.iter_s"] = metrics["aligner.train_s"] / iterations if iterations else 0.0
        segment_ms = [1000.0 * s for s in self._segment_s]
        metrics["ter.segment_p50_ms"] = statistics.median(segment_ms) if segment_ms else 0.0
        metrics["ter.segment_p90_ms"] = (
            statistics.quantiles(segment_ms, n=10)[8] if len(segment_ms) > 1
            else sum(segment_ms)
        )

        for key in ("compounds.split_s", "suffixes.separate_s", "markers.mark_s",
                    "markers.join_s"):
            metrics[key] = sum(r[key] for r in replays)
        preprocess_s = metrics["pipeline.preprocess_s"]
        metrics["pipeline.self_s"] = preprocess_s - (
            metrics["compounds.split_s"] + metrics["suffixes.separate_s"] + metrics["markers.mark_s"]
        )
        metrics["compounds.split_share"] = _ratio(metrics["compounds.split_s"], preprocess_s)
        metrics["suffixes.split_share"] = _ratio(metrics["suffixes.separate_s"], preprocess_s)
        tokens = sum(r["tokens"] for r in replays)
        types = sum(r["types"] for r in replays)
        metrics["pipeline.repeat_share"] = _ratio(tokens - types, tokens)
        metrics["pipeline.pieces_per_token"] = _ratio(sum(r["pieces"] for r in replays), tokens)

        self._counts = defaultdict(float)
        self._segment_s = []
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, step, depth, start, end in self.spans:
                fh.write(json.dumps({"name": name, "step": step, "depth": depth,
                                     "start": start, "end": end}) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def replay_preprocess(paths: dict) -> dict:
    """Re-run the cs+ss calls `preprocess` makes, one layer at a time.

    Reads the step's input and output files, splits every input token with
    split_compound, separates every constituent with separate_suffix and
    marks every token's pieces, timing each layer over the whole input.  It
    also times `reconstruct` over the step's output, the marker layer's
    join.  `matches` says whether the replay reproduced the output.
    """
    from mtprep.compounds import DEFAULT_MARGIN, load_compound_suffixes, split_compound
    from mtprep.corpus import read_token_corpus
    from mtprep.markers import mark_pieces
    from mtprep.pipeline import reconstruct
    from mtprep.suffixes import load_suffix_list, separate_suffix

    words = [w for sentence in read_token_corpus(paths["input"]) for w in sentence]
    output = read_token_corpus(paths["output"])
    compounds = load_compound_suffixes(paths["compounds"])
    suffixes = load_suffix_list(paths["suffixes"])
    marker = paths["marker"]

    start = perf_counter()
    constituents = [split_compound(w, compounds, DEFAULT_MARGIN) for w in words]
    split_s = perf_counter() - start

    start = perf_counter()
    pieces = [
        [p for c in parts for p in separate_suffix(c, suffixes).pieces()]
        for parts in constituents
    ]
    separate_s = perf_counter() - start

    mark_s = join_s = 0.0
    if marker is not None:
        start = perf_counter()
        pieces = [mark_pieces(p, marker) for p in pieces]
        mark_s = perf_counter() - start
        start = perf_counter()
        reconstruct(output, marker)
        join_s = perf_counter() - start

    replayed = [t for p in pieces for t in p]
    return {
        "compounds.split_s": split_s,
        "suffixes.separate_s": separate_s,
        "markers.mark_s": mark_s,
        "markers.join_s": join_s,
        "tokens": len(words),
        "types": len(set(words)),
        "pieces": len(replayed),
        "matches": replayed == [t for sentence in output for t in sentence],
    }
