"""The config fuzzer of config_fuzz.py at one fixed seed (ROADMAP item 15)."""

import json
import random

import config_fuzz
from unravelings.config import validate_config

SEED = 18
N_MUTATIONS = 1000


def test_every_accepted_config_ends_in_an_allowed_exit_code(tmp_path):
    # before riccati needed two steps and the master-equation oracle raised on
    # a non-finite rho, this seed found a riccati_free config at dt = 2 (a
    # ValueError traceback) and fig2 at nu = 2**64 (an overflow warning)
    counts, causes, findings = config_fuzz.sweep(SEED, N_MUTATIONS, tmp_path)
    assert not findings, "\n".join(findings)
    assert sum(counts[f"exit {code}"] for code in config_fuzz.EXITS) >= 100, counts
    # each exit 1 has a failed check for its cause, and each exit 3 a numerical failure
    for code, kind in ((1, "[FAIL] "), (3, "failed numerically: ")):
        assert sum(n for (_, cause), n in causes.items()
                   if cause.startswith(kind)) == counts[f"exit {code}"], causes


def test_mutations_start_from_capped_presets_and_repeat_by_seed():
    for name in ("fig2", "bell", "fig3"):
        cfg = validate_config(config_fuzz.start(name))
        assert cfg.n_steps == config_fuzz.START_STEPS
        assert cfg.n_trajectories <= config_fuzz.START_TRAJECTORIES

    def draws():
        rng = random.Random(SEED)
        return json.dumps([config_fuzz.mutation(rng) for _ in range(20)])

    assert draws() == draws()
