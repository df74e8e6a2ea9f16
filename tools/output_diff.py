"""Largest relative differences between two output trees, such as two
``tools/output_digests.py --keep`` directories.

    python tools/output_diff.py A B

For every file under A or B whose bytes differ, prints one line per
differing quantity: ``path  column  rel`` for each column of a ``.csv``
file (``trace.csv``, ``steady_catalog.csv``), ``path  record k  rel`` for
each record of a ``.pfld`` snapshot, and ``path  key  rel`` for each
number of a ``.json`` file (``key`` is the dotted path, list items by
index).  ``rel`` is max |a - b| / max(|a|, |b|) over the quantity's
values, 0 where they are equal; a difference this cannot measure (other
column names or row counts, other grids, a non-numeric JSON value, a file
present on one side only) is printed as a line of its own.  Prints nothing
when the trees hold the same bytes.  Exits 1 when some difference is not
numeric, else 0.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from phaseflow.grids import read_records  # noqa: E402


def relative(a, b):
    """max |a - b| / max(|a|, |b|) over equal-shape arrays: 0 where the
    entries are equal (both NaN included), NaN where exactly one is."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(same, 0.0, rel)
    return float(np.max(rel)) if rel.size else 0.0


def _csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, np.array(rows, dtype=float).reshape(len(rows),
                                                       len(header))


def diff_csv(pa, pb):
    (ha, a), (hb, b) = _csv(pa), _csv(pb)
    if ha != hb or a.shape != b.shape:
        return [("columns or rows differ", None)]
    return [(name, relative(a[:, i], b[:, i])) for i, name in enumerate(ha)]


def diff_pfld(pa, pb):
    ra, rb = read_records(pa), read_records(pb)
    if len(ra) != len(rb):
        return [("record counts differ", None)]
    out = []
    for k, ((fa, ta), (fb, tb)) in enumerate(zip(ra, rb)):
        if fa.grid != fb.grid:
            out.append((f"record {k} grids differ", None))
        else:
            out.append((f"record {k}", max(relative(fa.values, fb.values),
                                           relative(ta, tb))))
    return out


def _leaves(node, key=""):
    """(dotted key, value) of every leaf of a JSON tree."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, f"{key}.{i}" if key else str(i))
    else:
        yield key, node


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff_json(pa, pb):
    with open(pa) as fa, open(pb) as fb:
        la, lb = dict(_leaves(json.load(fa))), dict(_leaves(json.load(fb)))
    out = []
    for key in sorted(set(la) | set(lb)):
        va, vb = la.get(key), lb.get(key)
        if va == vb:
            continue
        if key in la and key in lb and _number(va) and _number(vb):
            out.append((key, relative(va, vb)))
        else:
            out.append((f"{key} differs", None))
    return out


DIFFS = {".csv": diff_csv, ".pfld": diff_pfld, ".json": diff_json}


def _files(top):
    return {os.path.relpath(os.path.join(folder, name), top)
            for folder, _, names in os.walk(top) for name in names}


def diff_trees(a, b):
    """[(relative path, what, rel or None)] of every difference between
    the trees a and b, sorted by path."""
    fa, fb = _files(a), _files(b)
    out = []
    for rel in sorted(fa | fb):
        if rel not in fa or rel not in fb:
            out.append((rel, f"only in {a if rel in fa else b}", None))
            continue
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        with open(pa, "rb") as ha, open(pb, "rb") as hb:
            if ha.read() == hb.read():
                continue
        diff = DIFFS.get(os.path.splitext(rel)[1])
        items = diff(pa, pb) if diff else [("bytes differ", None)]
        out.extend((rel, what, value) for what, value in items)
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    rows = diff_trees(sys.argv[1], sys.argv[2])
    for rel, what, value in rows:
        print(f"{rel}  {what}" + ("" if value is None else f"  {value:.3g}"))
    sys.exit(1 if any(value is None for _, _, value in rows) else 0)
