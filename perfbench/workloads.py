"""The benchmark's workloads: CLI commands, their configs and item counts.

Every workload is a list of ``qpe-bounds`` invocations.  The configs are
written to JSON files and passed to ``qpe_bounds.cli.main`` exactly as a
user would pass them on the command line; the workload seed becomes the
CLI ``--seed``.  Sizes keep the per-trial settings of acceptance
criterion 10 with fewer trials, so a repetition takes 5-10 s on one core.
"""

ALPHAS = [0.2, 0.4, 0.6, 0.8]

# accounting_sweep config (a): deep horizons on the uniform spectrum
_SWEEP_UNIFORM = {
    "spectrum": "uniform",
    "L": 20,
    "alphas": ALPHAS,
    "protocols": [
        {"kind": "qmegs", "T": [400, 2000], "N_t": 50},
        {"kind": "csqpe", "T": [400, 2000], "N_t": 50},
        {"kind": "qcels", "T": [512, 2048], "N_t": 50},
        {"kind": "qft", "T": [1023, 16383]},
    ],
}

# accounting_sweep config (b): short horizons on the clustered spectrum,
# the breakdown regime where diag_ratio reaches 1e6-1e9
_SWEEP_HEAD_DENSE = {
    "spectrum": "head_dense",
    "L": 20,
    "alphas": ALPHAS,
    "protocols": [
        {"kind": "qmegs", "T": [100], "N_t": 50},
        {"kind": "csqpe", "T": [100], "N_t": 50},
        {"kind": "qcels", "T": [128], "N_t": 50},
        {"kind": "qft", "T": [255]},
    ],
}

# criterion-10 Hadamard-test settings, 50 trials per point: a repetition
# of 4-6 s, so a run holds several and each is timed between two passes of
# the host-speed kernel
_CAMPAIGN_HT = {
    "spectrum": "uniform",
    "L": 20,
    "alphas": [0.4],
    "trials": 50,
    "protocols": [
        {"kind": "qmegs", "T": [1000], "N_t": 5000, "N_s": 2},
        {"kind": "csqpe", "T": [1000], "N_t": 500, "N_s": 20, "sparsity": 4},
        {"kind": "qcels", "T": [1024], "N_t": 500, "N_s": 10},
    ],
}

# criterion-10 register settings (n = 12, N_s = 1e5)
_CAMPAIGN_QFT = {
    "spectrum": "uniform",
    "L": 20,
    "alphas": [0.4],
    "trials": 20,
    "protocols": [{"kind": "qft", "T": [4095], "N_s": 100000}],
}


def _command(name, subcommand, config, threads=1):
    return {"name": name, "subcommand": subcommand, "config": config, "threads": threads}


WORKLOADS = {
    "accounting_sweep": {
        "items": "rows",
        "commands": [
            _command(f"{sub}_{tag}", sub, cfg)
            for tag, cfg in (("uniform", _SWEEP_UNIFORM), ("head_dense", _SWEEP_HEAD_DENSE))
            for sub in ("bounds", "diag", "gi")
        ],
    },
    # --threads 1 is the serial baseline: the trial pool is bypassed
    "campaign_ht": {
        "items": "trials",
        "commands": [_command("bench_ht", "bench", _CAMPAIGN_HT, threads=1)],
    },
    # two workers, fixed rather than taken from nproc, so the figures
    # mean the same on every machine with at least two cores
    "campaign_qft": {
        "items": "trials",
        "commands": [_command("bench_qft", "bench", _CAMPAIGN_QFT, threads=2)],
    },
}


def argv(command, config_path, out_path, seed):
    """The argument list handed to ``qpe_bounds.cli.main``."""
    return [
        command["subcommand"],
        "--config", config_path,
        "--out", out_path,
        "--seed", str(seed),
        "--threads", str(command["threads"]),
    ]
