"""Command-line front end.

Input documents are line oriented: a `field` line, then one `parity` or
`generator` line per matrix row.  `#` starts a comment.  Field elements are
written `0`, `a`, `a^K` (1 <= K <= q-1) or a plain integer m standing for
m*1; in particular `1` is the multiplicative unit a^(q-1).

Results are cached on disk keyed by a content hash of the job.  An entry is
two parts: a first line holding the compact JSON header {"key", "schema",
"sha256"}, and after it the exact bytes that `--format json` prints, which
the sha256 is taken over.  So a JSON hit writes the stored text and renders
nothing: a body that passes its digest check is served as written, and the
digest is what guards it.  A text hit renders the parsed result.  One entry
serves both formats.  An entry whose header is not a JSON object of the
right schema and key, whose body is missing or does not match its digest,
whose body is not the UTF-8 text of a JSON object, whose `verify` result
has no bool `agree`, or whose result does not render as text, is reported
on stderr as corrupt and recomputed; one that cannot be read is reported as
such and recomputed.  An entry written under an earlier CACHE_SCHEMA is a
miss, as a missing one is: recomputed and overwritten without a report.
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

CACHE_SCHEMA = 4


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
    """The job as the payload and the cache key both describe it: the command
    and kind asked for, the order for `rgb` (the one command that reads it),
    the field and the matrix rows as written."""
    header = {
        "command": args.command,
        "kind": args.kind,
        "field": {
            "p": doc.p,
            "r": doc.r,
            "modulus": list(doc.modulus),
            "basis": list(doc.basis_tokens) if doc.basis_tokens else None,
        },
        "matrix": {"role": doc.role, "rows": [list(t) for t in doc.rows]},
    }
    if args.command == "rgb":
        header["order"] = args.order
    return header


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


_PLAIN_INT = {int}


def _json(x, pad: str) -> str:
    """x as json.dumps(x, sort_keys=True, indent=2) writes it at depth `pad`,
    dict keys being strings as in every payload.  json runs its pure-Python
    encoder whenever it indents, one step per integer; here each list of
    plain ints (a bool is none) is one join of their reprs."""
    inner = pad + "  "
    if isinstance(x, dict):
        items = [json.dumps(k) + ": " + _json(v, inner) for k, v in sorted(x.items())]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}" if x else "{}"
    if isinstance(x, (list, tuple)):
        items = map(repr, x) if {*map(type, x)} == _PLAIN_INT else [_json(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]" if x else "[]"
    return json.dumps(x)


def render(fmt: str, result: dict) -> str:
    """A result payload as `fmt` ("text" or "json") output; json is
    json.dumps(result, sort_keys=True, indent=2) and a newline."""
    if fmt == "json":
        return _json(result, "") + "\n"
    return _render_text(result)


# -------------------------------------------------------------------- caching


def default_cache_dir() -> str:
    return os.path.join(os.path.expanduser("~"), ".cache", "codegb")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cache_path(cache_dir: str, key_fields: dict) -> str:
    return os.path.join(cache_dir, f"{_sha256(json.dumps(key_fields, sort_keys=True))}.json")


def _cache_read(path: str, key_fields: dict) -> Optional[tuple]:
    """The cached result at `path` and its stored text, or None: silently
    when there is no file or the entry has an earlier schema, with a report
    when the entry cannot be read or is corrupt.  Only the header line is
    parsed to check the schema, key and digest; the body is hashed as
    stored, then parsed once, since a body that is no JSON object or, for
    `verify`, has no bool `agree`, must not be served even under its
    digest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    except OSError as e:
        print(f"warning: could not read cache entry {path}: {e}", file=sys.stderr)
        return None
    # json.dumps escapes every newline inside a string, so the first one ends the header
    head, sep, body = data.partition(b"\n")
    try:
        entry = json.loads(head)
        if not isinstance(entry, dict):
            raise ValueError("not a JSON object")
        schema = entry.get("schema")
        if type(schema) is int and schema < CACHE_SCHEMA:
            return None
        if schema != CACHE_SCHEMA or entry.get("key") != key_fields:
            raise ValueError("schema or key mismatch")
        if not sep or entry.get("sha256") != hashlib.sha256(body).hexdigest():
            raise ValueError("result does not match its sha256")
        text = body.decode("utf-8")
        result = json.loads(text)
        if not isinstance(result, dict):
            raise ValueError("result is not a JSON object")
        return result, text
    # UnicodeDecodeError is a ValueError; json raises RecursionError on deep nesting
    except (ValueError, RecursionError) as e:
        _warn_corrupt(path, e)
        return None


def _warn_corrupt(path: str, why) -> None:
    print(f"warning: ignoring corrupt cache entry {path}: {why}", file=sys.stderr)


def _cache_write(path: str, key_fields: dict, text: str) -> None:
    """Store `text`, the `--format json` output, at `path` after a header
    line that holds the key, the schema and the sha256 of its UTF-8 bytes."""
    body = text.encode("utf-8")
    header = {"key": key_fields, "schema": CACHE_SCHEMA, "sha256": hashlib.sha256(body).hexdigest()}
    d = os.path.dirname(path)
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
                fh.write(b"\n")
                fh.write(body)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        print(f"warning: could not write cache entry {path}: {e}", file=sys.stderr)


def run(doc: Document, args) -> tuple:
    """The result payload of the job that `args` (parsed by build_parser) asks
    of `doc`, and its rendering in args.format: read from the cache, or
    computed and then cached.  A JSON hit is the stored text itself.  A
    cached `verify` result without a bool `agree`, which main reads, and a
    cached result that does not render as text are corrupt too."""
    header = _header(doc, args)
    path = None
    if not args.no_cache:
        path = _cache_path(args.cache_dir or default_cache_dir(), header)
        hit = _cache_read(path, header)
        if hit is not None:
            result = hit[0]
            if args.command == "verify" and type(result.get("agree")) is not bool:
                _warn_corrupt(path, "verify result has no bool agree")
            elif args.format == "json":
                return hit
            else:
                try:
                    return result, _render_text(result)
                except Exception as e:
                    _warn_corrupt(path, f"result does not render: {type(e).__name__}: {e}")
    result = {**header, **_compute(doc, args)}
    # one JSON rendering is both the entry's text and the json output
    body = render("json", result) if path is not None or args.format == "json" else None
    if path is not None:
        _cache_write(path, header, body)
    return result, body if args.format == "json" else _render_text(result)


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
        ("graver", "Graver basis: per component, a zero-sum walk or the codewords"),
        ("ugb", "universal Groebner basis: closed form at p = 2, else the cone sieve"),
        ("verify", "cross-check the pipeline against the brute-force oracle"),
    ]:
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("input", help="input document path, or - for stdin")
        sp.add_argument(
            "--kind", choices=[ORDINARY, GENERALIZED], default=ORDINARY
        )
        if name == "rgb":
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
            # the bytes, so that stdin is decoded as a path is, whatever the locale
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
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
