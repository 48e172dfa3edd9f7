"""Behaviour anchor: pinned sha256 of the artifacts of five small runs.

Any change to the simulator or to the protocol paths it drives that alters
a trajectory, a notification or a metric changes these digests.  A change
that is meant to alter behaviour re-pins them and says why.

``events.log`` is pinned as the time-ordered event stream prints it, and
``metrics.csv`` pins the per-day S/E/I/R/Q counts and new infections.
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
    # 18 days: the daily contact-store prune drops records from day 14 on
    # and the 15-day PDS retention drops points from day 16 on
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
        "events.log": "a9a0dfe697173997f9ed2a8db7cbfd86b22dd5aef22dd26ca56808bfdab5ace1",
        "metrics.csv": "95990abacbda735fd06df99550d50d5d4f03c09aca70910bc45569de8bc40038",
        "summary.json": "192965e623bd76d6897f241ac66c096b4f7781c16d886bd221dd76c367c22b50",
    },
    "contact": {
        "events.log": "3d7b593f15c73167064b0e14d59b7eedb781d843d027721ac5428733e2c9b722",
        "metrics.csv": "61df0e4b2a6190632d0340862a3f7c1ce172e8b85ee3acafd0da063328ed8cc2",
        "summary.json": "2129c36d26c7864853a3b1b98fa00c465f2c1a07d14d298bad946dc93c50021c",
    },
    "contact+location": {
        "events.log": "e86fb482703cd3bca1b8fca3b8aad4ecfb8ec94deebf90ee9cc8dcc2615c520d",
        "metrics.csv": "a115230fbeeac535db61df795c8e3215a868dbce6c5711fa6d515dd6cef48711",
        "summary.json": "7277db91c2a2257ed1471198ca00b4ac450d6247b6aa4361e7409f700e74b74a",
        "hotspots.json": "fc961c7836dac70f8ecdee28dac56a578f4333265cb33ffa5d48441c347f3a81",
    },
    "contact-delay0": {
        "events.log": "2152b9cbd9b67e7dbaa6ef6a05890c1a440af38959520122d4900cb530baf2bb",
        "metrics.csv": "47ab18f72d5cd0f8aa11a5fb154cc6140542e79d646d770cb2651896d356ee08",
        "summary.json": "ca74f7df06d7644de3dc7ec01943bc17f7b6045d05ca413a4e57eb4f353c17f2",
    },
    "contact-delay1.3": {
        "events.log": "af3e61fb9b772d699cca18e47d2f1b7ad3492dc15d9a8dfd108b83a156e6aae5",
        "metrics.csv": "85ab32109cb2e5a68cbef62ced018a8518d9e0dec5090d2807a8b8171e93f3e4",
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
