"""Record the reference values the scan gate compares against.

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

Writes perfbench/reference.json:

* scan.norms: for every eta in the scan workload's two pools, the norm
  row of analysis.regularity_scan on its ladder.

Run it only on a commit whose numbers are trusted (the values in the
repository were recorded on the commit that introduced the benchmark);
the gates then hold every later commit to them.  It takes about
80 s.
"""

import json
import os

from ibcfock import analysis
from workloads import REFERENCE, Scan


def scan_norms():
    wl = Scan(seed=0)
    etas = wl.cauchy_etas + wl.diverging_etas
    report = analysis.regularity_scan(wl.model, wl.ladder, etas)
    return {"ladder": wl.ladder,
            "norms": {f"{eta:g}": row.tolist() for eta, row in zip(etas, report.norm_table)}}


def main():
    payload = {"scan": scan_norms()}
    with open(REFERENCE, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE)}")


if __name__ == "__main__":
    main()
