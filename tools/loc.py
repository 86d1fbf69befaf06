"""Code lines per module of src/codegb, by the tokenizer.

A code line holds at least one token that is not a comment, a blank or an
indentation change, and is not part of a string statement (a docstring).
Run from the repository root:

    python tools/loc.py              # the working tree
    python tools/loc.py --base REF   # git ref REF, the working tree, the change

With --base, REF's modules are read with `git show`; nothing is checked out.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            statement.append(tok)
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def tree_counts(root: str) -> dict:
    counts = {}
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), encoding="utf-8") as f:
                counts[name] = code_lines(f.read())
    return counts


def ref_counts(root: str, ref: str) -> dict:
    """The counts of the modules that git ref `ref` has in directory `root`."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                              text=True, encoding="utf-8").stdout

    prefix = git("rev-parse", "--show-prefix").strip()
    names = git("ls-tree", "--full-tree", "--name-only", f"{ref}:{prefix}").split()
    return {name: code_lines(git("show", f"{ref}:{prefix}{name}"))
            for name in sorted(names) if name.endswith(".py")}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="code lines per module of src/codegb")
    parser.add_argument("root", nargs="?", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "codegb"))
    parser.add_argument("--base", metavar="REF", help="also count the modules at git ref REF")
    args = parser.parse_args(argv[1:])
    now = tree_counts(args.root)
    if args.base is None:
        for name, n in now.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(now.values()):6d}  total")
        return 0
    try:
        base = ref_counts(args.root, args.base)
    except subprocess.CalledProcessError as e:
        print(f"error: git {' '.join(e.cmd[1:])}: {e.stderr.strip()}", file=sys.stderr)
        return 2
    print(f"{args.base[:12]:>12}  {'now':>6}  {'change':>6}")
    rows = [(name, base.get(name, 0), now.get(name, 0)) for name in sorted(base.keys() | now.keys())]
    rows.append(("total", sum(base.values()), sum(now.values())))
    for name, b, n in rows:
        print(f"{b:12d}  {n:6d}  {n - b:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
