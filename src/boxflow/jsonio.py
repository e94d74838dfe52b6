"""The one reader and writer for every file the package reads or writes.

Artifacts are compact JSON with sorted keys and a final newline, or CSV
with one repr per value, so equal data gives equal bytes.  Every input file
is read through load_json: a file that cannot be read or decoded, whose
top level is not an object, or whose fields are missing or of the wrong
type raises IngestionError, which the command line reports with exit
code 2.  number, positive, string, boolean and mapping are the typed
checks loaders apply to the values they read.
"""

import json
import math

from .errors import IngestionError, PreconditionError


def write_json(path, data):
    """Write data to path as compact, key-sorted JSON plus a newline.

    The text is encoded in one json.dumps call, which uses the C encoder;
    json.dump streams the same bytes through the pure-Python encoder,
    several times slower on large artifacts.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def csv_text(header, rows):
    """CSV text: the header names, then one line per row of Python numbers.

    Each value is written as its repr, which is the shortest text that
    reads back to the same float.
    """
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    return "\n".join(lines) + "\n"


def load_json(path, what, parse):
    """parse(data, where) for the JSON object stored at path.

    what names the kind of file ("pair file", "verify report", ...) and
    where, passed to parse for its own messages, adds the path.  A
    KeyError, TypeError or ValueError that parse raises on a missing or
    malformed field, and the PreconditionError of an object built from
    values that break its invariants (L outside N, low >= high), become an
    IngestionError naming the file, as does a file that cannot be opened,
    is not UTF-8 JSON, or holds no object.
    """
    where = f"{what} {path}"
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read {where}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise IngestionError(f"{where} must hold a JSON object, got {data!r:.40}")
    try:
        return parse(data, where)
    except KeyError as exc:
        raise IngestionError(f"{where} is missing field {exc}") from exc
    except (TypeError, ValueError, PreconditionError) as exc:
        raise IngestionError(f"{where} is malformed: {exc}") from exc


def number(value, what, kind=float):
    """value, when it is a JSON number of the kind; else IngestionError.

    kind float takes integers too, but only those that convert to a
    finite float; JSON booleans are never numbers.
    """
    ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if ok and kind is float:
        try:
            ok = math.isfinite(value)
        except OverflowError:
            ok = False
    if not ok:
        name = "a finite number" if kind is float else "an integer"
        raise IngestionError(f"{what} must be {name}, got {value!r:.40}")
    return value


def positive(value, what, kind=float):
    """value, when it is a JSON number of the kind above zero."""
    if not number(value, what, kind) > 0:
        raise IngestionError(f"{what} must be positive, got {value!r}")
    return value


def _of_type(value, what, kind, name):
    if not isinstance(value, kind):
        raise IngestionError(f"{what} must be {name}, got {value!r:.40}")
    return value


def string(value, what):
    """value, when it is a JSON string."""
    return _of_type(value, what, str, "a string")


def boolean(value, what):
    """value, when it is JSON true or false."""
    return _of_type(value, what, bool, "true or false")


def mapping(value, what):
    """value, when it is a JSON object."""
    return _of_type(value, what, dict, "an object")
