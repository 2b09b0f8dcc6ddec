"""Line-by-line reader shared by the bath, library, sweep and yield-report
parsers.  Every ValueError it raises names the file kind and the line."""

from __future__ import annotations

import numpy as np


def _describe(spec):
    return " ".join(
        want if isinstance(want, str)
        else f"<{want[0].__name__}>..." if isinstance(want, list)
        else f"<{want.__name__}>" for want in spec)


class LineReader:
    """Reads a `# spinbath <magic>` text file after checking its header.

    A spec gives one entry per token: a str must equal its token, a type
    converts it, and a list [type] as the last entry converts one or more
    remaining tokens into a list.
    """

    def __init__(self, fh, magic, kind):
        if magic not in fh.readline():
            raise ValueError(f"not a spinbath {magic} file")
        self._fh = fh
        self.kind = kind
        self.lineno = 1

    def error(self, message):
        return ValueError(f"{self.kind} file line {self.lineno}: {message}")

    def _parse(self, line, spec):
        tok = line.split()
        tail = spec[-1] if isinstance(spec[-1], list) else None
        fixed = spec[:-1] if tail else spec
        if len(tok) > len(fixed) if tail else len(tok) == len(fixed):
            try:
                values = []
                for want, v in zip(fixed, tok):
                    if isinstance(want, str):
                        if v != want:
                            raise ValueError(v)
                    else:
                        values.append(want(v))
                if tail:
                    values.append([tail[0](v) for v in tok[len(fixed):]])
                return values
            except ValueError:
                pass
        raise self.error(f"expected {_describe(spec)!r}, got {line.strip()!r}")

    def record(self, *spec):
        """Values of the next line."""
        self.lineno += 1
        return self._parse(self._fh.readline(), spec)

    def rows(self, *spec):
        """Values of each remaining line; blank and '#' lines are skipped."""
        for line in self._fh:
            self.lineno += 1
            if line.strip() and not line.startswith("#"):
                yield self._parse(line, spec)

    def cells(self, shape, size=None):
        """The remaining 'cell i j v...' lines as {(i, j): array of v}, with
        every cell of the grid `shape` present once and, when `size` is
        given, holding exactly `size` values."""
        cells = {}
        for i, j, values in self.rows("cell", int, int, [float]):
            if not (0 <= i < shape[0] and 0 <= j < shape[1]) or (i, j) in cells:
                raise self.error(f"cell ({i}, {j}) is repeated or outside "
                                 f"the {shape[0]}x{shape[1]} grid")
            if size is not None and len(values) != size:
                raise self.error(f"cell ({i}, {j}) holds {len(values)} "
                                 f"values, expected {size}")
            cells[(i, j)] = np.array(values)
        if len(cells) < shape[0] * shape[1]:
            raise self.error(f"the file holds {len(cells)} of "
                             f"{shape[0] * shape[1]} cells")
        return cells
