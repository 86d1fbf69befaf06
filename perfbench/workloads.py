"""The three workloads: set-up from a seed, one timed operation at a time,
and the gates that check every result.

Every workload is a closed loop with one job in flight.  A round visits each
of the workload's codes once; round k uses variant k mod the workload's
number of variants.  Variant 0 is the documents as written in codes.py, the
same on every seed, and the others are seeded, so one run averages over
several variants of its seed.  Per code, a round makes one write (a cold
computation) followed by reads:

- graver-ladder, ugb-prime: the write is a cold ``codegb graver`` or
  ``codegb ugb`` job through ``cli.main`` with a fresh, empty cache
  directory; each read is the same job again, answered from the cache,
  just enough of them for the read tail that run.py takes.  The reads of
  all jobs form one read group, as each job has too few for a tail.
- decode: the write is the reduced Groebner basis of the code ideal under
  degrevlex; each read is the normal form of one received word x^w.  Each
  code's reads form a read group of their own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil

import codes as C


# cached reads per round of a CLI workload: a run of three rounds, the fewest
# in 36 seconds, then has some hundreds for its 95th percentile
ROUND_READS = 100


# --------------------------------------------------------------- CLI jobs


def check_elements(spec, inst, result) -> str | None:
    """Why a graver or ugb result is wrong, or None when it passes."""
    if result.get("count") != spec.count or len(result["elements"]) != spec.count:
        return f"{spec.name}: {len(result['elements'])} elements, expected {spec.count}"
    digest = C.element_digest(result["elements"], inst.src)
    if digest != spec.digest:
        return f"{spec.name}: digest {digest}, expected {spec.digest}"
    return None


class CliWorkload:
    """Cold CLI jobs, each followed by warm reads of the same job."""

    def __init__(self, command, specs, variants):
        self.command = self.label = command
        self.specs = specs
        # just enough cached reads per cold job for the read tail, so that
        # the cold jobs, the work these workloads exist for, get the time
        self.reads = -(-ROUND_READS // len(specs))
        self.variants = variants  # later rounds reuse them

    def setup(self, codegb, seed, workdir):
        self.codegb = codegb
        self.workdir = workdir
        self.instances = {}
        for spec in self.specs:
            for v in range(self.variants):
                rng = random.Random(f"{seed}:{spec.name}:{v}")
                inst = C.make_instance(codegb.cli.parse_input, spec, rng, permute=v > 0, scale_rows=False)
                path = os.path.join(workdir, f"{spec.name}-{v}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inst.text)
                self.instances[spec.name, v] = (inst, path)
        self._caches = 0

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.codegb.cli.main(argv)
        return rc, out.getvalue()

    def visit(self, spec, v, rec):
        """Write, then reads, of one code variant."""
        inst, path = self.instances[spec.name, v]
        self._caches += 1
        cache = os.path.join(self.workdir, f"cache-{self._caches}")
        os.mkdir(cache)
        argv = [self.command, path, "--kind", spec.kind, "--format", "json",
                "--cache-dir", cache]
        try:
            with rec.timed_write(spec.name):
                rc, cold = self._main(argv)
            if rc != 0:
                rec.fail(f"{spec.name}: exit code {rc}")
                return
            err = check_elements(spec, inst, json.loads(cold))
            if err:
                rec.fail(err)
            for _ in range(self.reads):
                with rec.timed_read(self.command):
                    rc, warm = self._main(argv)
                if rc != 0 or warm != cold:
                    rec.fail(f"{spec.name}: cached read differs (exit code {rc})")
        finally:
            shutil.rmtree(cache, ignore_errors=True)


# ------------------------------------------------------------------ decode


class DecodeCode:
    """One seeded variant of a decode code, with its received words."""

    def __init__(self, codegb, spec, rng, words, as_written):
        self.spec = spec
        inst = C.make_instance(codegb.cli.parse_input, spec, rng,
                               permute=not as_written, scale_rows=not as_written)
        job = codegb.cli.parse_input(inst.text)
        self.code = code = job.build_code()
        ff = code.ff
        elements = ff.elements()
        # exponent block of each field element at one position
        if spec.kind == "ordinary":
            blocks = [ff.coords(e) for e in elements]
        else:
            blocks = [ff.cross_up([e]) for e in elements]
        self.zero = blocks[0] * code.n
        Binomial = codegb.binomials.Binomial
        q, n = ff.q, code.n
        self.words = []
        while len(self.words) < words:
            w = tuple(c for _ in range(n) for c in blocks[rng.randrange(q)])
            if any(w):  # x^0 - 1 is no binomial
                self.words.append(Binomial(w, self.zero))
        # words shifted by a codeword; they must share the original's normal form
        self.shifted = []
        for b in rng.sample(self.words, 5):
            c = [ff.zero()] * n
            for g in code.generator_rows():
                coef = rng.choice(elements)
                c = [a + coef * x for a, x in zip(c, g)]
            shift = tuple(x for e in c for x in blocks[elements.index(e)])
            self.shifted.append((b, Binomial(tuple(a + s for a, s in zip(b.lhs, shift)), self.zero)))


def normal_form(out, zero):
    """Exponents of the normal form of x^w from reduce(x^w - 1)."""
    if out is None:
        return zero
    if out.rhs != zero:
        raise ValueError(f"normal form of a monomial came back as {out!r}")
    return out.lhs


def check_word(codegb, dc, b, out) -> str | None:
    """Why a normal form is wrong, or None: w - nf must encode a codeword."""
    nf = normal_form(out, dc.zero)
    if nf != b.lhs:
        diff = codegb.binomials.Binomial(b.lhs, nf)
        if codegb.binomials.word_of_binomial(dc.code, diff, dc.spec.kind) is None:
            return f"{dc.spec.name}: normal form {nf} of {b.lhs} is not in its coset"
    return None


class DecodeWorkload:
    # A run sees a fresh variant of each code in most rounds, since the write
    # path's cost differs by up to 2.7x between variants.
    variants = 8
    words = {"ham15": 1000, "f4-n6": 1000, "ter13": 300}
    label = "rgb"

    def __init__(self, specs):
        self.specs = specs

    def setup(self, codegb, seed, workdir):
        self.codegb = codegb
        self.codes = {}
        for spec in self.specs:
            for v in range(self.variants):
                rng = random.Random(f"{seed}:{spec.name}:{v}")
                self.codes[spec.name, v] = DecodeCode(codegb, spec, rng, self.words[spec.name], v == 0)

    def visit(self, spec, v, rec):
        cg = self.codegb
        dc = self.codes[spec.name, v]
        build = (cg.binomials.build_ordinary_generators if spec.kind == "ordinary"
                 else cg.binomials.build_generalized_generators)
        with rec.timed_write(spec.name):
            gens = build(dc.code)
            gb = cg.groebner.buchberger(gens, cg.orders.degrevlex(gens.space.dim))
        reduce = cg.groebner.reduce
        for b in dc.words:
            try:
                with rec.timed_read(spec.name):
                    out = reduce(b, gb)
                err = check_word(cg, dc, b, out)
            except Exception as e:  # a failed word must not end the run
                err = f"{spec.name}: {type(e).__name__}: {e}"
            if err:
                rec.fail(err)
        with rec.untimed():
            for b, shifted in dc.shifted:
                if normal_form(reduce(b, gb), dc.zero) != normal_form(reduce(shifted, gb), dc.zero):
                    rec.fail(f"{spec.name}: {b.lhs} and a codeword shift differ")


# Permuting positions and scaling rows leave a code the same, yet either can
# change the work many times over (see FINDINGS.md).  Each workload keeps
# only the changes whose cost stays steady on its codes: ugb-prime permutes
# positions, decode permutes and scales, and graver-ladder runs its documents
# as written, since both changes make its cost vary by more than any bound.
WORKLOADS = {
    "graver-ladder": lambda: CliWorkload("graver", C.GRAVER_LADDER, variants=1),
    "ugb-prime": lambda: CliWorkload("ugb", C.UGB_PRIME, variants=4),
    "decode": lambda: DecodeWorkload(C.DECODE),
}
