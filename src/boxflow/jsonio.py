"""The one JSON reader and writer for every file the package reads or writes.

Artifacts are compact JSON with sorted keys and a final newline, so equal
data gives equal bytes.  Input files that cannot be read or decoded raise
IngestionError, which the command line reports with exit code 2.
"""

import json

from .errors import IngestionError


def write_json(path, data):
    """Write data to path as compact, key-sorted JSON plus a newline.

    The text is encoded in one json.dumps call, which uses the C encoder;
    json.dump streams the same bytes through the pure-Python encoder,
    several times slower on large artifacts.
    """
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path, what):
    """Decoded contents of a JSON input file.

    what names the kind of file ("pair file", "verify report", ...) in the
    IngestionError raised when the file cannot be opened or is not UTF-8
    JSON.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IngestionError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IngestionError(f"{what} {path} is not valid JSON: {exc}") from exc
