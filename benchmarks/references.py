"""Stored references the benchmark checks on every run, and the script that makes them.

* golden.json: SHA-256 of the three bundled-scenario sweep CSVs and of the
  case-study CSV, i.e. the files ``gsdelay sweep`` and ``gsdelay case-study``
  write. A PR must keep them byte-identical unless it shows the old value
  was wrong.
* panel.json: an accuracy panel of WT and HSD designs, K = 2..10, solved at
  1201 quadrature nodes. A design built at the default node count that is
  more than 1e-6 (relative) off in n_max, ess or any efficacy bound fails.
* known_cell_failures.json: the bundled reference cells that already fail
  when these files are made (documented in the README). They are still
  counted as failed checks on every run; they only do not mark the run
  incorrect, while any other failing cell does.

Regenerate all three, from the root of a checkout, with::

    python3 benchmarks/references.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
PANEL_NODES = 1201
PANEL_TOLERANCE = 1e-6


def bundled_csvs(gs, root: Path) -> dict[str, str]:
    """The sweep CSV of every bundled scenario, and the case-study CSV."""
    out = {}
    for path in sorted((root / "scenarios").glob("*.ini")):
        out[f"scenarios/{path.name}"] = gs.reports.run_sweep(gs.load_scenario(path)).to_csv()
    out["case-study"] = gs.reports.case_study_table().to_csv()
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def panel_specs(gs) -> list:
    """WT 0.25 with binding futility and HSD -2 with symmetric futility, K = 2..10."""
    specs = []
    for k in range(2, 11):
        specs.append(gs.DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=k,
                                   family=gs.WangTsiatis(0.25),
                                   futility=gs.FutilityStyle.BINDING_ZERO))
        specs.append(gs.DesignSpec(alpha=0.05, beta=0.1, tau=0.5, num_stages=k,
                                   family=gs.HwangShihDeCani(-2.0),
                                   futility=gs.FutilityStyle.SYMMETRIC))
    return specs


def panel_values(design) -> dict:
    return {"n_max": design.max_n, "ess": design.ess, "efficacy": list(design.boundaries.efficacy)}


def panel_label(spec) -> str:
    return f"K={spec.num_stages} {spec.family} {spec.futility.value}"


def load(name: str):
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


def cell_id(check) -> str:
    return f"{check.table}|{check.row}|{check.column}"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import gsdelay as gs
    import gsdelay.reports  # noqa: F401  (binds gs.reports)

    REFERENCE_DIR.mkdir(exist_ok=True)

    def dump(name: str, payload) -> None:
        (REFERENCE_DIR / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")

    dump("golden.json", {name: sha256(text) for name, text in bundled_csvs(gs, ROOT).items()})
    dump("panel.json", {
        "nodes": PANEL_NODES,
        "designs": [{"label": panel_label(spec), **panel_values(gs.build_design(spec, nodes=PANEL_NODES))}
                    for spec in panel_specs(gs)],
    })
    failing = [cell_id(c) for report in gs.reports.verify_all() for c in report.failures]
    dump("known_cell_failures.json", failing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
