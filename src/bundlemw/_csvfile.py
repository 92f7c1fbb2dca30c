"""The one CSV table format of the package, stated in README.md's "File formats".

Values are written with ``%.17g``, which round-trips every float.  Reading
skips blank lines and ``#`` lines.  The first remaining line is a header when
its first cell is empty, or when none of its cells is a number even with a
``#`` comment cut off; any other line with a cell that is not a number is an
error.  A header whose first cell is empty marks a column of row names,
dropped unread, so a named row is never a comment.
"""

import numpy as np


def write_table(path, X, header=None, names=None, end="\n") -> None:
    """Write the rows of the 2-D array X, after the ``header`` line and
    behind one name each when ``names`` is given, every line ended by ``end``."""
    X = np.asarray(X, dtype=float)
    row, cells = ",".join(["%.17g"] * X.shape[1]) + end, X.ravel().tolist()
    if names is not None:
        row, cells = "%s," + row, [v for name, r in zip(names, X.tolist()) for v in (name, *r)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(("" if header is None else header + end) + (row * len(X)) % tuple(cells))


def _number(cell) -> bool:
    """Whether the cell is a number once a ``#`` comment is cut off."""
    try:
        float(cell.partition("#")[0])
    except ValueError:
        return False
    return True


def read_table(path, ragged=False):
    """The header cells (None without a header) and the data rows of a
    table file: one 2-D float array, or with ``ragged`` a list of float
    lists of any lengths.  A cell that is not a number, rows of unequal
    length where ``ragged`` is false and a file without data rows raise
    ValueError naming the file."""
    header, named, rows = None, False, []
    # utf-8-sig drops a byte-order mark, which would make the first row a header
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or (text[0] == "#" and not named):
                continue
            cells = text.split(",")
            try:
                values = list(map(float, cells[1:] if named else cells))
            except ValueError as exc:
                if header is None and not rows and (cells[0] == "" or not any(map(_number, cells))):
                    header, named = cells, cells[0] == ""
                    continue
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if not ragged and rows and len(values) != len(rows[0]):
                raise ValueError(f"{path}, line {lineno}: {len(values)} values in a table "
                                 f"whose first row has {len(rows[0])}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path} holds no data rows")
    return header, rows if ragged else np.array(rows)
