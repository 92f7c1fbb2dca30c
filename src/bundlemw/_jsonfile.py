"""The one JSON file format of the package: ``json.dumps(obj, indent=2,
sort_keys=True)`` plus ``"\\n"``, UTF-8, written whole by :func:`write_json`.
The C encoder runs only without indent, so a list of scalars, or of rows of
scalars, takes one call of it with a newline and the indent in its item
separator; rows are then split by ``str.replace``.  A symmetric float matrix,
such as a covariance, is written from the reprs of its upper triangle."""

import json
from itertools import chain
from operator import itemgetter


def _mirrored(obj, sep, rowsep):
    """The entries of the square matrix obj joined by ``sep`` and its rows by
    ``rowsep``, each off-diagonal repr made once; None unless obj is float rows
    equal to their transpose bit for bit.  Zeros, whose sign == ignores, and
    nan or infinity, which json spells differently, are left to the encoder."""
    if (any(len(r) != len(obj) for r in obj) or list(map(tuple, obj)) != list(zip(*obj))
            or any(0.0 in r for r in obj) or {*map(type, chain.from_iterable(obj))} != {float}):
        return None
    full = []
    for i, row in enumerate(obj):
        full.append([*map(itemgetter(i), full), *map(float.__repr__, row[i:])])
    body = rowsep.join(map(sep.join, full))
    return None if "n" in body else body


def _layout(obj, pad, out):
    """Append to out the pieces of obj's indented text, which follows ``pad``,
    a newline and the indent of obj's line."""
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        rows = all(isinstance(r, (list, tuple)) for r in obj)
        if rows or not isinstance(obj[0], dict):
            cell = inner + "  " if rows else inner
            if rows and (body := _mirrored(obj, "," + cell, inner + "]," + inner + "[" + cell)):
                return out.extend(("[" + inner + "[" + cell, body, inner + "]" + pad + "]"))
            text = json.JSONEncoder(separators=("," + cell, ": ")).encode(obj)
            # no scalar's text holds a newline, so every separator is structural
            # once the checks admit no dict and no deeper or empty list
            if "{" not in text and "[]" not in text and text.count("[") == 1 + rows * len(obj):
                if rows:
                    text = text.replace("]," + cell + "[", inner + "]," + inner + "[" + cell)
                    return out.extend(("[" + inner + "[" + cell, text[2:-2],
                                       inner + "]" + pad + "]"))
                return out.extend(("[" + inner, text[1:-1], pad + "]"))
        brackets, items = "[]", [("", item) for item in obj]
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        brackets, items = "{}", [(json.dumps(k) + ": ", obj[k]) for k in sorted(obj)]
    else:  # a scalar, an empty list or dict, or keys that json converts
        return out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad))
    for n, (key, value) in enumerate(items):
        out.append(("," if n else brackets[0]) + inner + key)
        _layout(value, inner, out)
    out.append(pad + brackets[1])


def write_json(path, obj) -> None:
    """Build the text, then open the file and write it: a value that json
    cannot encode raises json's own TypeError and leaves no file."""
    out = []
    _layout(obj, "\n", out)
    out.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(out)


def parse_json(text, path):
    """The value of the JSON ``text`` read from ``path``.  Text that is not
    JSON, or nests too deeply for the parser, raises ValueError naming the
    file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
                         f"{exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh.read(), path)
