"""What ``csv.writer`` renders for a table of named number columns, each
number as ``'%.15g'``: the reference the CSV writer is compared with.  Only
the standard library is imported, so the helper runs on any Python."""

import csv
import io


def csv_module_bytes(columns) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(columns)
    writer.writerows(zip(*([f"{float(x):.15g}" for x in col]
                           for col in columns.values())))
    return out.getvalue().encode("utf-8")
