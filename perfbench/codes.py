"""The benchmark's codes and the seeded documents built from them.

Each code is written in the parser's input syntax.  A seeded variant of a
document permutes the code's positions, scales every parity row by a nonzero
field element, or both.  Row scaling leaves the code unchanged and the
permutation only renames variables, so element counts, and digests taken
after undoing the permutation, are gates that hold on every variant.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class CodeSpec:
    name: str
    field: str  # the text after "field" on the document's first line
    rows: tuple  # parity rows, each a tuple of element tokens
    kind: str  # "ordinary" | "generalized"
    count: int = 0  # expected number of result elements (0: not gated)
    digest: str = ""  # expected element_digest of the result


def _rows(*lines):
    return tuple(tuple(line.split()) for line in lines)


def _bits(*lines):
    return tuple(tuple(line) for line in lines)


def _hamming15():
    return tuple(tuple(str((j >> b) & 1) for j in range(1, 16)) for b in range(4))


# Element counts and digests (see element_digest) of the results on the
# documents as written here, without permutation or scaling.
GRAVER_LADDER = (
    CodeSpec("f3-n6", "p=3 r=1 modulus=0,1", _rows("1 1 1 0 0 0", "0 0 1 1 2 1"),
             "ordinary", 91, "4cf11277eec579a4"),
    CodeSpec("ham7", "p=2 r=1 modulus=0,1", _bits("1001101", "0101011", "0010111"),
             "ordinary", 91, "7acc476615940ae2"),
    CodeSpec("f4-gen", "p=2 r=2 modulus=1,1,1 basis=a,1", _rows("a 1 a^2"),
             "generalized", 135, "e4c5fe12966b95ae"),
)

UGB_PRIME = (
    CodeSpec("p19n3", "p=19 r=1 modulus=0,1", _rows("1 7 3"), "ordinary", 28, "3ef904720e474b64"),
    CodeSpec("p29n3", "p=29 r=1 modulus=0,1", _rows("1 7 12"), "ordinary", 28, "608747298e95388f"),
)

DECODE = (
    CodeSpec("ham15", "p=2 r=1 modulus=0,1", _hamming15(), "ordinary"),
    CodeSpec("f4-n6", "p=2 r=2 modulus=1,1,1",
             _rows("1 a a^2 1 0 a", "0 1 a 1 a^2 1"), "generalized"),
    CodeSpec("ter13", "p=3 r=1 modulus=0,1",
             _rows("1 0 1 1 1 0 1 1 1 1 1 1 0",
                   "0 1 1 2 0 1 1 2 0 1 2 0 1",
                   "0 0 0 0 1 1 1 1 2 2 2 1 1"), "generalized"),
)


@dataclass(frozen=True)
class Instance:
    """One seeded variant of a code: the document the program receives, and
    the permutation needed to map its results back (column i of the document
    is column src[i] of the original code)."""

    text: str
    src: tuple


def _token(e, r):
    # prime fields read better as integers; the parser accepts both forms
    return str(e.field.poly_coords(e)[0]) if r == 1 else repr(e)


def original_text(spec: CodeSpec) -> str:
    return f"field {spec.field}\n" + "".join(
        "parity " + " ".join(row) + "\n" for row in spec.rows
    )


def make_instance(parse_input, spec: CodeSpec, rng: random.Random, *,
                  permute: bool, scale_rows: bool) -> Instance:
    """Permute the positions of spec and scale its rows, as asked, drawing
    from rng."""
    job = parse_input(original_text(spec))
    ff = job.ff
    src = list(range(len(job.matrix[0])))
    if permute:
        rng.shuffle(src)
    lines = [f"field {spec.field}"]
    for row in job.matrix:
        c = ff.from_power(rng.randrange(1, ff.q)) if scale_rows else ff.one()
        lines.append("parity " + " ".join(_token(c * row[j], ff.r) for j in src))
    return Instance("\n".join(lines) + "\n", tuple(src))


def unpermute(vec, src) -> tuple:
    """Exponent vector of the original code from one of the permuted code."""
    w = len(vec) // len(src)
    out = [0] * len(vec)
    for i, j in enumerate(src):
        out[j * w:(j + 1) * w] = vec[i * w:(i + 1) * w]
    return tuple(out)


def element_digest(elements, src) -> str:
    """Digest of a result's elements, independent of orientation and of the
    position permutation src."""
    pairs = sorted(
        tuple(sorted((unpermute(lhs, src), unpermute(rhs, src)))) for lhs, rhs in elements
    )
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]
