"""The one JSON file format of the package: UTF-8, two-space indent, sorted
keys and a trailing newline."""

import json


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
