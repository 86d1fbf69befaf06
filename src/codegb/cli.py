"""Command-line front end.

Input documents are line oriented: a `field` line, then one `parity` or
`generator` line per matrix row.  `#` starts a comment.  Field elements are
written `0`, `a`, `a^K` (1 <= K <= q-1) or a plain integer m standing for
m*1; in particular `1` is the multiplicative unit a^(q-1).

Results are cached on disk keyed by a content hash of the job.  An entry that
is not a JSON object of the right schema, key and job header, or whose result
does not render, is reported on stderr as corrupt and recomputed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

from .binomials import (
    GENERALIZED,
    ORDINARY,
    BinomialSet,
    Block,
    VariableSpace,
    build_generalized_generators,
    build_ordinary_generators,
)
from .codes import LinearCode
from .fields import FiniteField
from .graver import graver_bruteforce, graver_generalized, graver_ordinary
from .groebner import buchberger
from .matrices import build_He, build_Hplus_e, extend_with_pI, lawrence_lift
from .orders import degrevlex, lex
from .toric import toric_ideal
from .universal import universal_basis

CACHE_SCHEMA = 1


class ParseError(ValueError):
    def __init__(self, msg: str, line: Optional[int] = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


class BadElementTokenError(ParseError):
    pass


class InconsistentDimensionsError(ParseError):
    pass


@dataclass
class Document:
    """A parsed input document: the field and the matrix rows."""

    p: int
    r: int
    modulus: tuple
    basis_tokens: Optional[tuple]
    role: str  # "parity" | "generator"
    rows: tuple  # rows of raw tokens
    ff: FiniteField
    matrix: tuple  # rows of FieldElement

    def build_code(self) -> LinearCode:
        if self.role == "parity":
            return LinearCode.from_parity(self.ff, self.matrix)
        return LinearCode.from_generator(self.ff, self.matrix)


def _parse_element(tok: str, ff: FiniteField, lineno: int):
    if tok == "0":
        return ff.zero()
    if tok == "a":
        return ff.alpha()
    if tok.startswith("a^"):
        try:
            k = int(tok[2:])
        except ValueError:
            raise BadElementTokenError(f"bad exponent in token {tok!r}", lineno)
        if not 1 <= k <= ff.q - 1:
            raise BadElementTokenError(
                f"token {tok!r}: exponent must lie in 1..{ff.q - 1}", lineno
            )
        return ff.from_power(k)
    try:
        m = int(tok)
    except ValueError:
        raise BadElementTokenError(f"unrecognized element token {tok!r}", lineno)
    return ff.from_int(m)


def parse_input(text: str) -> Document:
    p = r = None
    modulus = None
    basis_tokens = None
    role = None
    token_rows = []
    ff = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "field":
            if ff is not None:
                raise ParseError("duplicate field line", lineno)
            kv = {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ParseError(f"expected key=value, got {tok!r}", lineno)
                key, val = tok.split("=", 1)
                if key in kv:
                    raise ParseError(f"duplicate key {key!r}", lineno)
                kv[key] = val
            try:
                p = int(kv.pop("p"))
                r = int(kv.pop("r"))
                modulus = tuple(int(c) for c in kv.pop("modulus").split(","))
            except KeyError as e:
                raise ParseError(f"field line missing {e.args[0]}", lineno)
            except ValueError:
                raise ParseError("p, r and modulus must be integers", lineno)
            basis_spec = kv.pop("basis", None)
            if kv:
                raise ParseError(f"unknown field keys: {', '.join(sorted(kv))}", lineno)
            try:
                ff = FiniteField(p, r, modulus)
                if basis_spec is not None:
                    basis_tokens = tuple(basis_spec.split(","))
                    ff = ff.with_basis(
                        [_parse_element(t, ff, lineno) for t in basis_tokens]
                    )
            except ParseError:
                raise
            except ValueError as e:
                raise ParseError(f"invalid field: {e}", lineno)
        elif head in ("parity", "generator"):
            if ff is None:
                raise ParseError("field line must appear before matrix rows", lineno)
            if role is None:
                role = head
            elif role != head:
                raise ParseError(
                    f"cannot mix parity and generator rows (saw {role!r} first)", lineno
                )
            if len(tokens) == 1:
                raise ParseError("empty matrix row", lineno)
            row = tuple(_parse_element(t, ff, lineno) for t in tokens[1:])
            if token_rows and len(row) != len(token_rows[0][1]):
                raise InconsistentDimensionsError(
                    f"row has {len(row)} entries, expected {len(token_rows[0][1])}",
                    lineno,
                )
            token_rows.append((tuple(tokens[1:]), row))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if ff is None:
        raise ParseError("missing field line")
    if not token_rows:
        raise ParseError("no matrix rows given")
    return Document(
        p=p,
        r=r,
        modulus=modulus,
        basis_tokens=basis_tokens,
        role=role,
        rows=tuple(t for t, _ in token_rows),
        ff=ff,
        matrix=tuple(m for _, m in token_rows),
    )


# ---------------------------------------------------------------- computation


def _order_for(name: str, dim: int):
    return lex(dim) if name == "lex" else degrevlex(dim)


def _elements_payload(binomials) -> list:
    return [[list(b.lhs), list(b.rhs)] for b in binomials.sorted()]


def _header(doc: Document, args) -> dict:
    """The job as the payload and the cache key both describe it: the command,
    kind and order asked for, the field and the matrix rows as written."""
    return {
        "command": args.command,
        "kind": args.kind,
        "order": args.order,
        "field": {
            "p": doc.p,
            "r": doc.r,
            "modulus": list(doc.modulus),
            "basis": list(doc.basis_tokens) if doc.basis_tokens else None,
        },
        "matrix": {"role": doc.role, "rows": [list(t) for t in doc.rows]},
    }


def _compute(doc: Document, args) -> dict:
    """The result fields of the payload; run puts the header next to them."""
    code = doc.build_code()
    ff = doc.ff
    generalized = args.kind == GENERALIZED
    out: dict = {}

    if args.command in ("matrix", "toric"):
        base = build_Hplus_e(code) if generalized else build_He(code)
        extended = extend_with_pI(base, ff.p)
        if args.command == "matrix":
            out["matrices"] = {
                "base": [list(row) for row in base],
                "extended": [list(row) for row in extended],
                "lawrence": [list(row) for row in lawrence_lift(base, ff.p)],
            }
            return out
        space = VariableSpace(Block("x", (code.n, base.ncols // code.n)), Block("y", base.nrows))
        gens = toric_ideal(extended, space)
        out["variables"] = list(space.names())
        out["count"] = len(gens)
        out["elements"] = _elements_payload(gens)
        return out

    if args.command == "rgb":
        gens = build_generalized_generators(code) if generalized else build_ordinary_generators(code)
        gb = buchberger(gens, _order_for(args.order, gens.space.dim))
        out["variables"] = list(gens.space.names())
        out["count"] = len(gb)
        # keep the stored orientation: leading side first, sorted by lead
        out["elements"] = [[list(b.lhs), list(b.rhs)] for b in gb]
        return out

    if args.command in ("graver", "ugb", "verify"):
        graver = graver_generalized(code) if generalized else graver_ordinary(code)
        space = graver.elements.space
        out["variables"] = list(space.names())
        if args.command == "graver":
            out["count"] = len(graver)
            out["elements"] = _elements_payload(graver.elements)
            return out
        if args.command == "ugb":
            ub = universal_basis(graver)
            out["count"] = len(ub)
            out["elements"] = _elements_payload(ub.elements)
            return out
        oracle = graver_bruteforce(code, args.kind)
        agree = graver.elements == oracle.elements
        out["agree"] = agree
        out["count"] = len(oracle)
        only_pipe = [b for b in graver.elements.sorted() if b not in oracle.elements]
        only_orac = [b for b in oracle.elements.sorted() if b not in graver.elements]
        out["only_pipeline"] = _elements_payload(BinomialSet(space, only_pipe))
        out["only_oracle"] = _elements_payload(BinomialSet(space, only_orac))
        return out

    raise ValueError(f"unknown command {args.command!r}")


# --------------------------------------------------------------- presentation


def _monomial_str(u, names) -> str:
    parts = []
    for i, e in enumerate(u):
        if e == 1:
            parts.append(names[i])
        elif e > 1:
            parts.append(f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


def _binomial_lines(elements, names) -> list:
    return [
        f"{_monomial_str(lhs, names)} - {_monomial_str(rhs, names)}"
        for lhs, rhs in elements
    ]


def _render_text(result: dict) -> str:
    lines = []
    if result["command"] == "matrix":
        plus = "+" if result["kind"] == GENERALIZED else ""
        labels = [("base", f"H{plus}e"), ("extended", f"H{plus}(q)"), ("lawrence", "Lawrence")]
        for key, label in labels:
            lines.append(f"{label}:")
            for row in result["matrices"][key]:
                lines.append(" ".join(str(e) for e in row))
            lines.append("")
        return "\n".join(lines).rstrip("\n") + "\n"
    if result["command"] == "verify":
        lines.append(f"agree: {'true' if result['agree'] else 'false'}")
        lines.append(f"count: {result['count']}")
        names = result["variables"]
        for key in ("only_pipeline", "only_oracle"):
            if result[key]:
                lines.append(f"{key}:")
                lines.extend("  " + s for s in _binomial_lines(result[key], names))
        return "\n".join(lines) + "\n"
    names = result["variables"]
    lines.extend(_binomial_lines(result["elements"], names))
    return "\n".join(lines) + "\n"


def render(fmt: str, result: dict) -> str:
    """A result payload as `fmt` ("text" or "json") output."""
    if fmt == "json":
        return json.dumps(result, sort_keys=True, indent=2) + "\n"
    return _render_text(result)


# -------------------------------------------------------------------- caching


def default_cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "codegb")


def _cache_path(cache_dir: str, key_fields: dict) -> str:
    digest = hashlib.sha256(
        json.dumps(key_fields, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return os.path.join(cache_dir, f"{digest}.json")


def _cache_read(path: str, key_fields: dict) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
        if payload.get("schema") != CACHE_SCHEMA or payload.get("key") != key_fields:
            raise ValueError("schema or key mismatch")
        result = payload.get("result")
        if not isinstance(result, dict):
            raise ValueError("result is not a JSON object")
        if any(result.get(k) != v for k, v in key_fields.items()):
            raise ValueError("result does not carry the header of its key")
        return result
    except (OSError, ValueError) as e:
        _warn_corrupt(path, e)
        return None


def _warn_corrupt(path: str, why) -> None:
    print(f"warning: ignoring corrupt cache entry {path}: {why}", file=sys.stderr)


def _cache_write(path: str, key_fields: dict, result: dict) -> None:
    payload = {"schema": CACHE_SCHEMA, "key": key_fields, "result": result}
    d = os.path.dirname(path)
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        print(f"warning: could not write cache entry {path}: {e}", file=sys.stderr)


def run(doc: Document, args) -> tuple:
    """The result payload of the job that `args` (parsed by build_parser) asks
    of `doc`, and its rendering in args.format: read from the cache, or
    computed and then cached.  A cached result that does not render is
    corrupt."""
    header = _header(doc, args)
    path = None
    if not args.no_cache:
        path = _cache_path(args.cache_dir or default_cache_dir(), header)
        result = _cache_read(path, header)
        if result is not None:
            try:
                return result, render(args.format, result)
            except Exception as e:
                _warn_corrupt(path, f"result does not render: {type(e).__name__}: {e}")
    result = {**header, **_compute(doc, args)}
    if path is not None:
        _cache_write(path, header, result)
    return result, render(args.format, result)


# ------------------------------------------------------------------ CLI entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codegb",
        description="Groebner, Graver and universal bases of code ideals over GF(p^r)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("matrix", "print the defining integer matrices"),
        ("toric", "generating set of the associated toric ideal"),
        ("rgb", "reduced Groebner basis of the code ideal"),
        ("graver", "Graver basis by completion on the code lattice"),
        ("ugb", "universal Groebner basis: closed form at p = 2, else the cone sieve"),
        ("verify", "cross-check the pipeline against the brute-force oracle"),
    ]:
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("input", help="input document path, or - for stdin")
        sp.add_argument(
            "--kind", choices=[ORDINARY, GENERALIZED], default=ORDINARY
        )
        sp.add_argument("--order", choices=["lex", "degrevlex"], default="degrevlex")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--no-cache", action="store_true")
        sp.add_argument("--cache-dir", default=None)
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _parser
    # built on the first call, not at import; every parse starts from a fresh
    # namespace and no action keeps state, so one parser serves every call
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: cannot read input: {e}", file=sys.stderr)
        return 2
    try:
        doc = parse_input(text)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        result, text = run(doc, args)
    except Exception as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    if args.command == "verify" and not result["agree"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
