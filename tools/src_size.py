#!/usr/bin/env python3
"""Print the size of the package source as one JSON object.

    python3 tools/src_size.py [ROOT]

Counts every `*.py` file under ROOT/src (ROOT defaults to the checkout
this script lies in): `lines` is all their lines, `code_lines` the lines
that hold a token of code, found with `tokenize`.  Comments, blank lines
and docstrings (a string that stands alone as a statement) hold none, so
they do not count; a line that a code token only continues onto (inside
brackets or a string spanning lines) counts once it holds such a token.
"""

from __future__ import annotations

import json
import sys
import tokenize
from pathlib import Path

# tokens that hold no code
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The lines of a Python file that hold a code token, docstrings left out."""
    lines: set[int] = set()
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    # a statement starts after NEWLINE, INDENT or DEDENT, or at the top
    starts = True
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                starts = True
            continue
        if starts and tok.type == tokenize.STRING:
            after = next(t for t in tokens[k + 1 :] if t.type not in (tokenize.NL, tokenize.COMMENT))
            docstring = after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        else:
            docstring = False
        starts = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_size(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    return {
        "files": len(files),
        "lines": sum(len(p.read_bytes().splitlines()) for p in files),
        "code_lines": sum(code_lines(p) for p in files),
    }


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    print(json.dumps(src_size(root)))
