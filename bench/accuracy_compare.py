#!/usr/bin/env python3
"""Compare classification accuracy of two builds over many seeds.

    python3 bench/accuracy_compare.py PARENT_DIR CHANGE_DIR

Each directory holds one run per file: the JSON rows bench/accuracy_sweep
writes (`--stream=S --seed=N --out=DIR/S_N.json`) and the reports of
`bench/table2_classification_validation --seed=N --out=DIR/table2_N.json`.

A cell is one error measure of one stream or Table 2 group:
  - stream rows: the 16 probe cells err_{su,so,het,if}_{grow,cap}_{p50,p90};
  - Table 2: the avg and p90 of each group's scale-up, scale-out,
    heterogeneity, interference and exhaustive errors.
Cells that read 0 in every run on both sides have no samples (e.g. no
at-cap scale-out arrival on the churn stream) and are skipped.

Every error is lower-is-better. A cell is worse when the change's median
over seeds exceeds the parent's median by more than the parent's
seed-to-seed interquartile range, and better when it falls short of it by
more than that. Prints every cell and the medians of the fit counters,
and exits 1 if any cell is worse.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

FIT_COUNTERS = ["fits", "fit_epochs", "capped_fits", "entry_visits",
                "fit_s", "seed_s"]
TABLE2_CLASSES = ["su", "so", "het", "if", "exh"]


def load(directory):
    """(cells, counters): cell -> values, (stream, counter) -> values."""
    cells = defaultdict(list)
    counters = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        text = path.read_text()
        doc = json.loads(text)
        if "groups" in doc:
            for group in doc["groups"]:
                for cls in TABLE2_CLASSES:
                    for stat in ("avg", "p90"):
                        key = f"{cls}_{stat}"
                        cells[("table2", group["group"], key)].append(
                            float(group[key]))
            continue
        stream = doc["stream"]
        for key, value in doc.items():
            if key.startswith("err_"):
                cells[(stream, "", key)].append(float(value))
        for key in FIT_COUNTERS:
            if key in doc:
                counters[(stream, key)].append(float(doc[key]))
    return cells, counters


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, parent_counters = load(argv[1])
    change, change_counters = load(argv[2])
    worse = better = compared = 0
    print(f"{'cell':<34} {'parent med':>10} {'IQR':>8} {'change med':>10}"
          f"  verdict")
    for cell in sorted(parent):
        if cell not in change:
            print(f"{' '.join(c for c in cell if c):<34} missing in "
                  f"{argv[2]}")
            worse += 1
            continue
        old, new = parent[cell], change[cell]
        if not any(old) and not any(new):
            continue
        compared += 1
        q1, med, q3 = quartiles(old)
        iqr = q3 - q1
        new_med = statistics.median(new)
        verdict = ""
        if new_med > med + iqr:
            verdict = "WORSE"
            worse += 1
        elif new_med < med - iqr:
            verdict = "better"
            better += 1
        name = " ".join(c for c in cell if c)
        print(f"{name:<34} {med:>10.4f} {iqr:>8.4f} {new_med:>10.4f}"
              f"  {verdict}")
    print(f"\n{compared} cells compared: {worse} worse, {better} better")

    print(f"\n{'fit counter (median)':<26} {'parent':>12} {'change':>12}")
    for key in sorted(parent_counters):
        old = statistics.median(parent_counters[key])
        new = change_counters.get(key)
        new_text = f"{statistics.median(new):>12.4g}" if new else \
            f"{'-':>12}"
        print(f"{key[0] + ' ' + key[1]:<26} {old:>12.4g} {new_text}")
    for key in sorted(set(change_counters) - set(parent_counters)):
        new = statistics.median(change_counters[key])
        print(f"{key[0] + ' ' + key[1]:<26} {'-':>12} {new:>12.4g}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
