"""The CLI's output, written through a write function such as
``sys.stdout.write``: JSON as ``json.dumps(payload, indent=2,
sort_keys=True)`` would write it, or ``key: value`` text.  ``Rows`` are
written through one %-template per table, 4096 rows at a time, and a
closed table's rows are made as they are written, straight from its int
table: its points sorted on two int chart functionals (``weight_order``),
each numerator's text made once, one % per row (``table_rows``).
"""

from __future__ import annotations

import functools
import json
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as escape
from math import gcd
from operator import add, itemgetter, mul


class Rows:
    """Rows of string fields, each written as the JSON object that maps
    ``keys`` to the row's fields.  With ``patterns``, one (%-pattern, its
    fields' positions in a row) per key, a key's value is its pattern
    filled with those fields, which hold no character that JSON escapes.
    ``rows`` is read once, as it is written."""

    def __init__(self, keys: tuple, rows=(), patterns: tuple | None = None):
        self.keys, self.rows, self.patterns = keys, rows, patterns

    def lines(self, slot, head: str, sep: str, tail: str, convert=None):
        """Each row as head, then slot(key, value) per key in key order,
        joined by sep, then tail, filled by one % per row: a value is its
        pattern, or its field passed through convert."""
        patterns = self.patterns or [("%s", (i,)) for i in range(len(self.keys))]
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        template = head + sep.join(slot(self.keys[i].replace("%", "%%"), patterns[i][0])
                                   for i in order) + tail
        rows = self.rows if convert is None else (tuple(map(convert, row)) for row in self.rows)
        return map(template.__mod__, map(itemgetter(*[f for i in order for f in patterns[i][1]]),
                                         rows))


def _write_rows(lines, write, head: str = "", sep: str = "") -> bool:
    """Write head, then the lines joined by sep, 4096 at a time; False,
    writing nothing, when there is none."""
    started = False
    while chunk := list(islice(lines, 4096)):
        write((sep if started else head) + sep.join(chunk))
        started = True
    return started


def write_json(value, pad: str, write) -> None:
    """Write value's text at indentation pad through write, as
    ``json.dumps(value, indent=2, sort_keys=True)`` writes it: ``Rows``
    through one template, strings by the C escape."""
    inner = pad + "  "
    if isinstance(value, Rows):
        quote = '"' if value.patterns else ""
        lines = value.lines(lambda k, v: f"{inner}  {escape(k)}: {quote}{v}{quote}",
                            inner + "{\n", ",\n", f"\n{inner}}}", None if quote else escape)
        write(f"\n{pad}]" if _write_rows(lines, write, "[\n", ",\n") else "[]")
    elif isinstance(value, (dict, list, tuple)) and value:
        keys = sorted(value) if isinstance(value, dict) else None
        write("[{"[keys is not None])
        for i, item in enumerate(value if keys is None else keys):
            write(("," if i else "") + "\n" + inner)
            if keys is not None:
                write(escape(item) + ": ")
                item = value[item]
            write_json(item, inner, write)
        write("\n" + pad + "]}"[keys is not None])
    else:
        write(escape(value) if isinstance(value, str) else json.dumps(value))


def emit(payload: dict, output: str, write=None) -> str | None:
    """Write the payload through write as JSON, or as ``key: value`` lines
    (``key.sub: value`` in a dict, a row of ``Rows`` as tab-separated
    ``key=value`` pairs); without write, return its text."""
    if write is None:
        out: list = []
        emit(payload, output, out.append)
        return "".join(out)
    if output == "json":
        write_json(payload, "", write)
        write("\n")
    else:
        _write_text(payload, "", write)
    return None


def _write_text(payload: dict, prefix: str, write) -> None:
    for key, value in sorted(payload.items()):
        if isinstance(value, dict):
            _write_text(value, f"{prefix}{key}.", write)
        elif isinstance(value, Rows):
            write(f"{prefix}{key}:\n")
            _write_rows(value.lines(lambda k, v: f"{k}={v}", "  ", "\t", "\n"), write)
        else:
            text = ", ".join(map(str, value)) if isinstance(value, list) else value
            write(f"{prefix}{key}: {text}\n")


class _Text(dict):
    """The text of a numerator n over the positive denominator den, as
    ``str(Fraction(n, den))`` prints it, made on first use (one per den
    and process, ``_text``)."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, n: int) -> str:
        den = self.den
        g = gcd(n, den)
        self[n] = text = f"{n // g}/{den // g}" if g != den else str(n // den)
        return text


_text = functools.lru_cache(maxsize=None)(_Text)


def weight_rows(rows, den: int) -> Rows:
    """(int numerators, multiplicity) rows over one positive denominator in
    weight order, as the numerators sort, as ``Rows`` of "weight" and "mult"."""
    text = _text(den)
    return Rows(("weight", "mult"), [(",".join([text[n] for n in nums]), str(m))
                                     for nums, m in sorted(rows)], (("%s", (0,)), ("%s", (1,))))


def weight_order(points, columns) -> list:
    """The chart points (k, l) in the order of their weights, whose
    numerators are k b + l c for the int columns (b, c) of an injective
    map.  Those sort as the first nonzero column's value, then as the
    first column's not proportional to it: on ties of the first, every
    column in between ties too.  Both are int functionals of (k, l), read
    as one: the first times M, more than twice the second's size, plus
    the second."""
    (b1, c1), *rest = [(b, c) for b, c in columns if b or c]
    b2, c2 = next((b, c) for b, c in rest if b1 * c - c1 * b)
    m = 2 * (abs(b2) * max(map(abs, map(itemgetter(0), points)), default=0)
             + abs(c2) * max(map(abs, map(itemgetter(1), points)), default=0)) + 1
    p, q = b1 * m + b2, c1 * m + c2
    return sorted(points, key=lambda point: p * point[0] + q * point[1])


def table_rows(table) -> Rows:
    """A closed table's entries in weight order (``weight_order``), each
    row made as it is written, from the int table: a chart point (k, l)
    has the weight numerators k b + l c over den for the chart's int
    columns (b, c), and a row's fields are the texts of its numerators on
    the distinct nonzero columns, then its multiplicity."""
    by_key, columns = table.by_key, table.coords.columns
    keys = weight_order(by_key, columns)
    distinct = list(dict.fromkeys(col for col in columns if any(col)))
    text = _text(table.coords.den)

    def numerators(b, c):
        return map(add, map(mul, map(itemgetter(0), keys), repeat(b)),
                   map(mul, map(itemgetter(1), keys), repeat(c)))

    rows = zip(*[map(text.__getitem__, numerators(b, c)) for b, c in distinct],
               map(str, map(by_key.__getitem__, keys)))
    mu = ",".join("%s" if any(col) else "0" for col in columns)
    fields = tuple(distinct.index(col) for col in columns if any(col))
    return Rows(("mu", "mult"), rows, ((mu, fields), ("%s", (len(distinct),))))
