"""Memory budgets as slopes: a child interpreter's peak resident size at two
input sizes, so the interpreter's own baseline, which differs by Python and
host, cancels."""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="reads the child's peak resident size (VmHWM) from "
    "/proc/self/status, which only Linux has",
)

# Appended to each child's script: its own peak resident size, in kB.
_PRINT_PEAK = """
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def peak_slope(script, small, large):
    """Extra bytes of peak resident size per unit of input between two runs
    of script, each in a child sys.executable whose argv[1] is the size.

    The children run at once, with PYTHONMALLOC=pymalloc: CI's tier-1 runs in
    dev mode and sets PYTHONDEVMODE=1 for the interpreters tests start, and
    dev mode's debug allocator pads every block (train_em's slope below read
    103 bytes a token pair under it, against 63 with pymalloc), which is not
    what users run."""
    env = {**os.environ, "PYTHONMALLOC": "pymalloc"}
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script + _PRINT_PEAK, str(size)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        for size in (small, large)
    ]
    peaks = []
    for child in children:
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        peaks.append(int(out))
    return (peaks[1] - peaks[0]) * 1024 / (large - small)


# Zipf-weighted pairs of 20 source and 20 target tokens over 20,000 types a
# side, drawn pair by pair, so the smaller corpus is the larger's prefix;
# then two EM iterations.
TRAIN_EM = """
import random, sys
from itertools import accumulate
from mtprep.aligner import train_em

rng = random.Random(20)
cum = list(accumulate(1 / rank for rank in range(1, 20_001)))
src_vocab = [f"s{k}" for k in range(20_000)]
tgt_vocab = [f"t{k}" for k in range(20_000)]
src, tgt = [], []
for _ in range(int(sys.argv[1])):
    src.append(rng.choices(src_vocab, cum_weights=cum, k=20))
    tgt.append(rng.choices(tgt_vocab, cum_weights=cum, k=20))
train_em(src, tgt, 2)
"""

# Bytes of peak per (source, target) token pair that train_em may add.
TRAIN_EM_BYTES_PER_TOKEN_PAIR = 75


def test_train_em_peak_grows_by_a_bounded_slope_per_token_pair():
    # 1,000 more pairs of 20 x 20 tokens are 400,000 more token pairs, each
    # one cell read of the E-step, and a share of the table's cells
    slope = peak_slope(TRAIN_EM, 1000, 2000) / (20 * 20)
    assert slope <= TRAIN_EM_BYTES_PER_TOKEN_PAIR, (
        f"train_em's peak grew {slope:.1f} bytes per token pair"
    )


# argv[1] distinct words, one a line: the hex spellings of as many distinct
# 32-bit numbers (an odd multiplier is a bijection), over the letters a-p;
# then induce-suffixes on them through the command line.
INDUCE_SUFFIXES = """
import sys, tempfile
from pathlib import Path
from mtprep.cli import main

spell = str.maketrans("0123456789abcdef", "abcdefghijklmnop")
with tempfile.TemporaryDirectory() as tmp:
    mono, out = Path(tmp, "mono.txt"), Path(tmp, "out.tsv")
    with open(mono, "w") as f:
        f.writelines(
            f"{k * 2654435761 % 2**32:x}\\n".translate(spell) for k in range(int(sys.argv[1]))
        )
    assert main(["induce-suffixes", "--mono", str(mono), "-o", str(out)]) == 0
"""

# Bytes of peak per distinct type that induce-suffixes may add.
INDUCE_BYTES_PER_TYPE = 175


def test_induce_suffixes_peak_grows_by_a_bounded_slope_per_type():
    # the command reads the text and its reverse, then holds the set of the
    # reversed types and a sorted list of them: about 144 bytes a type were
    # measured
    slope = peak_slope(INDUCE_SUFFIXES, 200_000, 400_000)
    assert slope <= INDUCE_BYTES_PER_TYPE, (
        f"induce-suffixes' peak grew {slope:.1f} bytes per distinct type"
    )
