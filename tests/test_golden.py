"""Behaviour anchor: pinned sha256 of the artifacts of five small runs.

Any change to the simulator or to the protocol paths it drives that alters
a trajectory, a notification or a metric changes these digests.  A change
that is meant to alter behaviour re-pins them and says why.
"""

import hashlib
from dataclasses import replace

import pytest

from epitrace.sim import Intervention, ScenarioConfig, Simulation, default_shared_cells

BASE = ScenarioConfig(
    n_agents=150,
    width=12,
    height=12,
    adoption=0.8,
    beta_contact=0.03,
    shared_space_cells=default_shared_cells(12, 12, 3),
    seed=5,
    horizon_days=14,
    n_index_cases=4,
    n_workplaces=40,
)

CONFIGS = {
    "none": BASE,
    "contact": replace(BASE, intervention=Intervention.CONTACT_TRACING),
    # 18 days: the weekly contact-store prune runs on days 7 and 14 and
    # the 15-day PDS retention drops points from day 16 on
    "contact+location": replace(
        BASE,
        intervention=Intervention.CONTACT_AND_LOCATION,
        beta_fomite=0.05,
        n_workplaces=0,
        horizon_days=18,
    ),
    # tested in the epoch they turn infectious: each test falls due in the
    # epoch that books it
    "contact-delay0": replace(
        BASE, intervention=Intervention.CONTACT_TRACING, beta_contact=0.06, n_index_cases=10, test_delay_days=0.0
    ),
    # timers between epochs, past QUARANTINE_DAYS: S and R agents leave Q,
    # and a positive still infectious at its release date stays until R
    "contact-delay1.3": replace(
        BASE,
        intervention=Intervention.CONTACT_TRACING,
        beta_contact=0.06,
        n_index_cases=10,
        test_delay_days=1.3,
        horizon_days=20,
    ),
}

GOLDEN = {
    "none": {
        "events.log": "4fcae14d604e3c9b2bc5a57439435301802cfab59694bd74c47b0c60506be9f5",
        "summary.json": "192965e623bd76d6897f241ac66c096b4f7781c16d886bd221dd76c367c22b50",
    },
    "contact": {
        "events.log": "b71475bdc7a80d06a3b5ad290f4b09205afdb8274e02cd40c1a659738e9e0e84",
        "summary.json": "2129c36d26c7864853a3b1b98fa00c465f2c1a07d14d298bad946dc93c50021c",
    },
    "contact+location": {
        "events.log": "709fa9e30f0340f3b4d6d22f9035ca89b848a285102641693f70673cbc1cf04c",
        "summary.json": "7277db91c2a2257ed1471198ca00b4ac450d6247b6aa4361e7409f700e74b74a",
        "hotspots.json": "4f37826f9ddb866af55dc0b19b1d97e3b946def2ddd5cb64c5266661e2e808f7",
    },
    "contact-delay0": {
        "events.log": "5efe0bf537f3825649d71b7f4165bad61d53e11896c74a4357676bc5473da5fd",
        "summary.json": "ca74f7df06d7644de3dc7ec01943bc17f7b6045d05ca413a4e57eb4f353c17f2",
    },
    "contact-delay1.3": {
        "events.log": "f6328b07e29fa14b25b484b658d178e519b15d51fafb7449a3df6c05a675abfc",
        "summary.json": "e55390c1d78ec4b1fb3cfa481355cc2ef71865ccb610fc73c4a5050efdf19ce2",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests_pinned(name, tmp_path):
    sim = Simulation(CONFIGS[name])
    sim.run()
    sim.write_outputs(tmp_path)
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert got == GOLDEN[name]
