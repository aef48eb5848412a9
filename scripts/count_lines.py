#!/usr/bin/env python3
"""Print the total and code lines of each module of the package.

A code line holds at least one token that is not a comment, a docstring
(a string that is a whole statement by itself) or layout (newline, indent,
dedent). Blank lines, comment lines and docstring lines are left out.

    python3 scripts/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/mcmc_confidence next to this script.
"""

import io
import sys
import tokenize
from pathlib import Path

_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python source file."""
    source = path.read_bytes()
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING and tokens[i - 1].type in _STATEMENT_START
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src" / "mcmc_confidence"
    totals = [0, 0]
    print(f"{'module':<20} {'total':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines = count(path)
        totals = [t + c for t, c in zip(totals, lines)]
        print(f"{path.name:<20} {lines[0]:>6} {lines[1]:>6}")
    print(f"{'src/ total':<20} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
