"""The one reader and writer for every file the package reads or writes.

Artifacts are compact JSON with sorted keys and a final newline, or CSV
with one repr per value, so equal data gives equal bytes.  Every input file
is read through load_json: a file that cannot be read or decoded, whose
top level is not an object, or whose fields are missing or of the wrong
type raises IngestionError, which the command line reports with exit
code 2.  number, positive, string, boolean and mapping are the typed
checks loaders apply to the values they read.

Long lists of integer ids (graph edges, box sets) are written by one numpy
byte kernel instead of json.dumps: id_labels is a table of the ASCII
labels of the ids 0 .. n-1, one fixed-width row each, and records fills
one row of bytes per record from it by slice assignment, then drops the
zero bytes that pad every label.  ids_json gives a JSON array this way,
and write_json splices such ready bytes in at their key.  Floats never go
through the kernel: json.dumps writes them in JSON, and repr in CSV.

The largest lists, the edges of graph.json and graph.dot, are written in
blocks: blocks(n) cuts n records into runs of the module constant BLOCK,
the writer yields the bytes of one block at a time, and write_json writes
a generator value piece by piece.  A writer then holds the byte tables of
one block, not of the whole file.
"""

import json
import math
from types import GeneratorType

import numpy as np

from .errors import IngestionError, PreconditionError


# records per block of a streamed writer, so that a writer's byte tables
# hold one block of records however many the file has
BLOCK = 2 ** 15


def blocks(n):
    """The (lo, hi) bounds of the blocks of BLOCK records that n records
    make, in order; the last block may be shorter."""
    return [(lo, min(lo + BLOCK, n)) for lo in range(0, n, BLOCK)]


def write_json(path, data):
    """Write the dict data to path as compact, key-sorted JSON plus a newline.

    A bytes value is JSON text already (from ids_json, say) and is written
    as it is; a generator value is streamed, its bytes pieces, which make
    one JSON value together, written one after another.  Every other value
    is encoded by one json.dumps call, which uses the C encoder; json.dump
    streams the same bytes through the pure-Python encoder, several times
    slower on large artifacts.
    """
    with open(path, "wb") as fh:
        fh.write(b"{")
        for i, key in enumerate(sorted(data)):
            value = data[key]
            fh.write((b"," if i else b"") + json.dumps(key).encode() + b":")
            if isinstance(value, GeneratorType):
                for piece in value:
                    fh.write(piece)
            else:
                if not isinstance(value, bytes):
                    value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
                fh.write(value)
        fh.write(b"}\n")


def id_labels(n, prefix=b"", last=b"-1"):
    """The ASCII labels of the ids 0 .. n-1, as an (n + 1, width) uint8 table.

    Row i holds prefix and the decimal digits of i; the extra last row
    holds last, so that index -1 (EXIT) reads it.  Every row is padded
    with zero bytes, which records drops.
    """
    digits = len(str(n - 1))
    table = np.zeros((n + 1, max(len(prefix) + digits, len(last))), dtype=np.uint8)
    table[:n, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    table[n, :len(last)] = np.frombuffer(last, dtype=np.uint8)
    ids = np.arange(n, dtype=np.int64)
    for k in range(digits):
        col = table[:n, len(prefix) + digits - 1 - k]
        col[:] = ids % 10 + ord("0")
        if k:
            # ids below 10**k have no digit k
            col[:10 ** k] = 0
        ids //= 10
    return table


def records(n, parts):
    """The bytes of n text records, each the concatenation of parts, with
    every zero byte dropped.

    A part is bytes, the same in every record; a uint8 array with one row
    per record, such as labels.take(ids, axis=0) of an id_labels table
    (take gathers rows several times faster than labels[ids]); or a pair
    (part, rows) that only the records that rows, an index array or a
    slice, selects hold.
    """
    parts = [part if isinstance(part, tuple) else (part, slice(None)) for part in parts]
    parts = [(np.frombuffer(part, dtype=np.uint8) if isinstance(part, bytes) else part, rows)
             for part, rows in parts]
    out = np.zeros((n, sum(part.shape[-1] for part, _ in parts)), dtype=np.uint8)
    col = 0
    for part, rows in parts:
        width = part.shape[-1]
        out[rows, col:col + width] = part
        col += width
    return out[out != 0].tobytes()


def ids_json(ids, labels):
    """The JSON array of an int64 id array, written from an id_labels table."""
    return b"[" + records(ids.size, [(b",", slice(1, None)), labels.take(ids, axis=0)]) + b"]"


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
