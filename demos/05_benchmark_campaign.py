#!/usr/bin/env python3
"""A small end-to-end benchmark campaign.

Samples measurement outcomes for two protocols over a short horizon
grid, runs the matching estimators, and scores each grid point with the
efficiency ratio R = T * t_total * MSE / (gamma/g0).  R near 1 means
the estimator extracts nearly all the information the bound allows;
large R flags an inefficient reconstruction.  The rows go to a CSV
whose bytes depend only on the config and seed.
"""

from pathlib import Path

from qpe_bounds import CampaignConfig, ProtocolSpec, run_campaign
from qpe_bounds.bench import write_rows_csv


def main():
    cfg = CampaignConfig(
        spectrum="uniform",
        L=5,
        alphas=[0.4],
        protocols=[
            ProtocolSpec("qmegs", T=[50, 100, 200], N_t=300, N_s=4),
            ProtocolSpec("qft", T=[63, 255], N_s=20000),
        ],
        trials=20,
        seed=7,
    )
    rows = run_campaign(cfg)

    print("protocol   T      mse          ratio R   diag_ratio  error")
    for r in rows:
        if r.error:
            print(f"{r.protocol:8s} {r.T:6.0f}  {r.error}")
        else:
            print(f"{r.protocol:8s} {r.T:6.0f}  {r.mse:.4e}  {r.ratio_r:8.3f}"
                  f"  {r.diag_ratio:9.6f}")

    out = Path("campaign_demo.csv")
    write_rows_csv(rows, out, cfg.seed)
    print(f"\nwrote {out} ({out.stat().st_size} bytes); rerunning the same")
    print("config and seed reproduces it byte for byte.")


if __name__ == "__main__":
    main()
