"""The one writer of every report: named columns of equal length, written as
CSV (``# `` comment lines, a header, the rows) or as one JSON document
``{"schema": 1, "command", "comments", "rows"}``."""

import contextlib
import csv
import json
import os

import numpy as np

from .errors import OutputError


def _plain(value):
    """A numpy scalar as the Python number it holds; anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


def open_target(path):
    """Open a report path for writing; OutputError names a path that cannot
    be opened."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {os.fsdecode(path)}: {exc.strerror or exc}") from exc


def write_table(target, columns, comments=(), fmt="csv", command=None) -> None:
    """Write ``columns`` ({name: sequence}, all of one length) to ``target``,
    a path or an open text stream.  A None entry is a blank CSV field and a
    key left out of its JSON row; the JSON document carries ``comments``
    only when there are any.  A path that cannot be opened raises
    OutputError naming it, before anything is written."""
    names = list(columns)
    cols = [c.tolist() if isinstance(c, np.ndarray) else [_plain(v) for v in c] for c in columns.values()]
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    with open_target(target) if own else contextlib.nullcontext(target) as fh:
        if fmt == "json":
            payload = {"schema": 1, "command": command}
            if comments:
                payload["comments"] = list(comments)
            payload["rows"] = [{k: v for k, v in zip(names, row) if v is not None} for row in zip(*cols, strict=True)]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            fh.writelines(f"# {line}\n" for line in comments)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(zip(*cols, strict=True))
