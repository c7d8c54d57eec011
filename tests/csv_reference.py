"""What ``csv.writer`` renders for a table of named columns, numbers as
``'%.15g'``: the reference the CSV writer is compared with.

Before Python 3.11, ``csv.writer`` refuses any field holding NUL ("need to
escape, but no escapechar set").  So each NUL is written as a code point
the table does not hold and turned back afterwards.  From 3.11 on, NUL is
an ordinary character to ``csv.writer``, so the bytes are the same.  Only
the standard library is imported, so the helper runs on any Python.
"""

import csv
import io


def csv_module_bytes(columns) -> bytes:
    names = [str(name) for name in columns]
    cells = [[str(x) if isinstance(x, str) else f"{float(x):.15g}" for x in col]
             for col in columns.values()]
    held = "".join(names) + "".join("".join(col) for col in cells)
    stand_in = next(c for c in map(chr, range(0xE000, 0x110000)) if c not in held)

    def swap(texts):
        return [t.replace("\0", stand_in) for t in texts]

    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(swap(names))
    writer.writerows(zip(*map(swap, cells)))
    return out.getvalue().replace(stand_in, "\0").encode("utf-8")
