"""Golden artifacts: pinned sha256 of report.json, audit.log, decisions.log,
events.log, the four trajectory CSVs and opm_snapshot.txt.

Covers the six shipped presets at their defaults, three overloaded runs
(semantic, churn and drift at H=600, lambda=2.0), where queues grow and churn
redispatches non-empty queues, and one overloaded run of a config-file plan
that mixes all six event types.  Any change to the simulated numbers, the
audit trail, the fast path's scores or the event log changes a hash.

The module needs only the standard library, so interpreters without pytest
can check the same hashes::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

from edgesched.harness import ExperimentConfig, run_experiment
from edgesched.sim import plan_from_dicts

ARTIFACTS = ("report.json", "audit.log", "decisions.log", "events.log")
EXTRA_ARTIFACTS = (
    "trajectory_e3.csv",
    "trajectory_fixed_heuristic.csv",
    "trajectory_oracle.csv",
    "trajectory_round_robin.csv",
    "opm_snapshot.txt",
)

# A config-file plan with every event type: a semantic window on an SDXL
# device, hidden drift inside a semantic window on an LLM device, a leave
# while the peer is degraded (its queue is redispatched) and a drifted device
# that leaves and returns before its drift is restored.
MIXED_PLAN_ROWS = [
    {"type": "semantic_onset", "at_task": 60, "device": 0, "label": "game"},
    {"type": "drift_step", "at_task": 70, "device": 0, "model": "llama3.1-8b-edge", "factor": 2.0},
    {"type": "semantic_onset", "at_task": 80, "device": 3, "label": "video_call", "factor": 2.5},
    {"type": "drift_restore", "at_task": 90, "device": 0, "model": "llama3.1-8b-edge"},
    {"type": "semantic_offset", "at_task": 100, "device": 0, "label": "game"},
    {"type": "device_leave", "at_task": 110, "device": 2},
    {"type": "semantic_offset", "at_task": 130, "device": 3, "label": "video_call"},
    {"type": "device_return", "at_task": 150, "device": 2},
    {"type": "drift_step", "at_task": 170, "device": 1, "model": "llama3.1-8b-edge", "factor": 1.5},
    {"type": "device_leave", "at_task": 190, "device": 1},
    {"type": "device_return", "at_task": 220, "device": 1},
    {"type": "drift_restore", "at_task": 250, "device": 1, "model": "llama3.1-8b-edge"},
]

# name -> ExperimentConfig arguments
CONFIGS: dict[str, dict] = {
    "warmup_w0": {"scenario": "warmup", "warmup_budget": 0},
    "warmup_w30": {"scenario": "warmup", "warmup_budget": 30},
    "warmup_w100": {"scenario": "warmup", "warmup_budget": 100},
    "semantic": {"scenario": "semantic"},
    "churn": {"scenario": "churn"},
    "drift": {"scenario": "drift"},
    "semantic_h600_lam2": {"scenario": "semantic", "horizon": 600, "lam": 2.0},
    "churn_h600_lam2": {"scenario": "churn", "horizon": 600, "lam": 2.0},
    "drift_h600_lam2": {"scenario": "drift", "horizon": 600, "lam": 2.0},
    "mixed_plan_h400_lam2": {
        "scenario": "semantic",
        "horizon": 400,
        "lam": 2.0,
        "plan": plan_from_dicts(MIXED_PLAN_ROWS),
    },
}

# name -> (report.json, audit.log, decisions.log, events.log)
GOLDEN: dict[str, tuple[str, str, str, str]] = {
    "warmup_w0": (
        "d5873ac5ed4fdf9ec8c81b991d466ac75277782cceff848664a3abcfa515794e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "51c4e769e17108930883d97c7c65e303d1cd4c227d99165611ca9974b556983e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "warmup_w30": (
        "9c461bc75efd2269b64433cd9e217de2fa75ec1dc4e75e4be3555976b1d5c6dd",
        "580d382d2401f15713dec66699860eff5d9a4bc004519362739fd206b8196cd4",
        "69af05e2f7d0a7c5131251589448737d47078e667955c1d75f3ced5973d97ad1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "warmup_w100": (
        "8e0900e936a0eefd783bd2a2b4b56221b2cf5e65ae67926eb7d83a9a89ccf11d",
        "7b13bd0233b979f0e6bdedb677294807d789bf849210627e2cdef665c501fad0",
        "3008e0e73db971338a725fdc8cae9a9335ba3a05270daa40a47800cba822b5e4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "semantic": (
        "61f068de78cad22016678edbff43e121ea5631b4a90dd3eda5b61c2c7f403a90",
        "6a1725d82a92acd58f4ac1253be1f1ae170f7cad5b81ccdcbbf0c33b5eeaf600",
        "2bf44ee8e12bd354354db43e3748b2159ef58b1485a5370367ebaae18c923387",
        "430de6978d0fa80a609338d1b6a1bf0ffa9e141cdcc5f50292072ac2f3a63c8b",
    ),
    "churn": (
        "c1ca557e1ae689cf2b23ddcc6ab6dac4b01ef23e82301afd0dd41fe3d859aaaa",
        "d011688c06d62fa18d7b56f4e7328d2b491d053f20d59cc13604db3aa22738ad",
        "49394e3258d4358ce3c819c755b6df4656a87cd968c1bf65e0bfad4ce622b9f0",
        "63b9ce45be1e1eb3cbcc76b1fbbdbdf28d10556a6150685e369e320235599de9",
    ),
    "drift": (
        "9c52c2de8e66829962836bc42503c12891b56d8e5901788ef1528e076f8769b0",
        "df8f2cb0876f33fa3341fc1ec89fb024216e2799544b2bdef5704b5efb6e6578",
        "501205b768020fa298aefb84d36ab5a059822a92f400979914c04a2c2eec4743",
        "4a5b5bf81a8bc513fc3fe69411f3c9ddfaa6014ee4feb592c6dfbdfbd5af19f3",
    ),
    "semantic_h600_lam2": (
        "0d2e15e85d0a17211dd0380d3cfe3370e7ac4a22cfc6a355322ae087e059480e",
        "0b58a8623c0c61cc31b1ce249e037dc29d6b46ab28d9bcd70fea4ead0e0e004a",
        "cd8092010771003760b0eebf71359d8c76bdf9a21af4255e3c4913bebb680ea1",
        "d85e41ac1ab9e6bd06f4cd6e99fc1fd93cfffa9aaa6620353820f8e5fb53d60d",
    ),
    "churn_h600_lam2": (
        "f80f7e5ab81599fb6082876b00d33835c54345afc59ee2bb40fc85ca8e78ac1f",
        "5b6b267d21b2496503ca112b7b5ec8a57f403de479ff3547e7b7e83f94a50dcf",
        "868abf978ae93608142efa070b1b204f902bb1bbcb9b85537c39dd2eff7718ba",
        "5ab7b182c7515ed25d260d1055789696267e116250ae3c8f284c9f1a235cc4c5",
    ),
    "drift_h600_lam2": (
        "48ce3bb90720e331f377f08856a1bc8f89c8aa71aad6083dcf22823667758134",
        "d0558b290c2f7890af113fafe76a7c9afdd3f438c6d23af22aa73d087ba971b0",
        "3de4e3204a12b5e5c7eea022484bc1625f91947b07d62d576add4f6b3a365baf",
        "ca5ce8062d114a225145c586cd01741061cf8baffde78ea65e135d166577c729",
    ),
    "mixed_plan_h400_lam2": (
        "f8294e562cb359685ec037c187e86934a946f1ccc9d160c63327b5b0e54832fc",
        "f086dc5e79ac8e0718f4b25cb9247660692b1d711fe2e8d8f62054f880d678b0",
        "7533f9f42d4d5c06af3f265009dd904c0e6f73f7de71f801ac0eb835ecff8592",
        "018738dde63159cf164ee1e200f4e2f5fc1a27e18093681fb7e505c3f2398c43",
    ),
}

# name -> EXTRA_ARTIFACTS, in that order
GOLDEN_EXTRA: dict[str, tuple[str, str, str, str, str]] = {
    "warmup_w0": (
        "9034df80451c1a6265eb30a8d651c8c47f130387c24fce7c102fa97578b2a3bc",
        "9034df80451c1a6265eb30a8d651c8c47f130387c24fce7c102fa97578b2a3bc",
        "142d0259268f51676dcf1280df58569a8eb0b10537a50ec234a119425a831535",
        "f4798ca128315f565b148d5934dc328852190b8ffe2fd195c2bb41b593a79502",
        "a73b9764c1532bf9d1cf0549ea9bc0566aeeba2c7d62e1750572d6fdc781af12",
    ),
    "warmup_w30": (
        "9e980664701042eb6f309789aa8c7dc95fa8f67247cc6aac542e756e8bcf7943",
        "9034df80451c1a6265eb30a8d651c8c47f130387c24fce7c102fa97578b2a3bc",
        "142d0259268f51676dcf1280df58569a8eb0b10537a50ec234a119425a831535",
        "f4798ca128315f565b148d5934dc328852190b8ffe2fd195c2bb41b593a79502",
        "5ebbc8f54563536ddf1c2252e74c5431e48f7cc9fbee91fb67926911eafc194f",
    ),
    "warmup_w100": (
        "0fb0e2f4a7f1566271def14009feb1dd03cfdae132098da6d692f141c88e0934",
        "9034df80451c1a6265eb30a8d651c8c47f130387c24fce7c102fa97578b2a3bc",
        "142d0259268f51676dcf1280df58569a8eb0b10537a50ec234a119425a831535",
        "f4798ca128315f565b148d5934dc328852190b8ffe2fd195c2bb41b593a79502",
        "747b05d1641a5cac5d8dca2f246ef1bebe331894cad64fd9f8351fb42ff9df8a",
    ),
    "semantic": (
        "ceaedb7d7711b9621c55f977c6cc855b6fb7cab3b9887c06209a576390875bab",
        "10611414efb0d508d71607fa0af9b11a1654e950c9e4a17b2d8328f470a3aa85",
        "4c32842c48db02f64dd0a25568d6ae70e0db468f72eb3fb759c2d9fa9f9cba49",
        "2a8146cf7a2765e5ccfd32dde41bb0b78c19c962dcb4b57ddd4a42a7bb414572",
        "0d346dc6093fd7bf8f1b4a8d7149dd1c4b45d9a2e6b8dc6bc3fd1d32f3a1e067",
    ),
    "churn": (
        "d9636183fd262c333a545615c3320af7916da715ed519836d365e32fb2239150",
        "7e57aa4b70d5fd5e76358cb758fcea5660cba41efa44f4e8847cca110d0acba1",
        "c418af7e89fa1f7b25b76f3288e3597db88e1c16efbdfb2c6763ccfad885ddaa",
        "e6d0d618f0a4baa2efca6c9e57c430f65c67c65cd7e8ac3d10ced135446a1244",
        "5b6c46be2cf2539e937a9409e4a1262207d6ee57c198612d88939c62d0d3d6e0",
    ),
    "drift": (
        "a59757bbb46c9ffaa0ec4fed645772057215361a06e43852383063f231115da1",
        "0bee644d0dee29e3e0bc6523e5404f3005289187b8ea350f826b8caaf209957b",
        "50ed1661abf0c5cc851628d1725eaec64107f0758982cf432925ba2dbfe7a8db",
        "2cdefcd255839e77e47cb944862818f570fc4cb46b4c1bdf0e58814bfc815645",
        "22960f14c8cf54e8ee2839626eb8f928fcbeb21879569892284efb88891a74ce",
    ),
    "semantic_h600_lam2": (
        "9806e6e8afdd524068d4525f02ea63c691955b0f0b42a8dfd9a210a3982f82df",
        "bfb2c15a0fd9cce3f1d2279461947a412dc42ff0cf621f9f1a62cec0fbf3a4a3",
        "274045d0964f04a8876caa27acf2b8ba356467320bd9b293e8d5c4dc98c65ddf",
        "7768ae3d37ca5821bc18f88f30c01f0a2ce028e9b3af13b62b25f3e6313754bc",
        "0fd703f6fb69ed862d593cf06a210f9bf13c62f154a165999c3bd16c730e1307",
    ),
    "churn_h600_lam2": (
        "8316873daf51dd196bd598c6f8672f6435ee3d32c45fe82cb14d3ec0012cbcfc",
        "c1f0a23c856df265af8588f2c6e0dd26d78365aa0975395b51b74c3f5eb7df5a",
        "3b0e03b390f6a05ee85ee337b29e1c35e0a169c0aef8c9566c34c348201f9db1",
        "bd1b9191045fc0f23bba9d75d3ec3eb592baf66b569a358db24f3d3a87c222a9",
        "5b35864f5a433aab157e2a6de3a6a472a189da1267d93abf53ee82af06d9983e",
    ),
    "drift_h600_lam2": (
        "4d4afc81addc9be170f2bfc073084ef10976a1bb34be69c2e31741f4874b21c6",
        "619f42658d46edff908d1b353f9d307eeb5d26217cb2720eb8ef81f7f86809fd",
        "b6171e67836328ec6c1ad46ff98dec175912c62860f8ffb57c26804ad74e17a8",
        "42c622a0a89d85275e2fe8096c9e05aab412507e6dd8dc7b23a577958202bd4a",
        "a5103b9ca64542d656fb479afd617f1cf9c5e74998316d0653738e4c98d9b397",
    ),
    "mixed_plan_h400_lam2": (
        "7eab66c9bc529e362a04d1656e9022029e5bb2c5cf0a539885946c082f99cd71",
        "74d278edaa599e40ccdf35f950e8c230287c48586fb1217c1f91fbfd8b019c2b",
        "07303e605381b6bb18c1bcd60d7e4809cd8651505c2cc0951a66217f1463bdad",
        "bcb174f7ce5cde640f7b389654f9db45dd28fcd005ddbbd2f80a8f4d6680b764",
        "0cb0fd52b137eaaa8742e62ce175977bdf8223c36b8af137c23a3657a5eec749",
    ),
}


def artifact_hashes(name: str, out_dir: Path) -> tuple[str, ...]:
    """Run one golden configuration and hash its artifacts, then the extra ones."""
    out = out_dir / name
    run_experiment(ExperimentConfig(**CONFIGS[name], trace_decisions=True, out_dir=out))
    return tuple(
        hashlib.sha256((out / a).read_bytes()).hexdigest()
        for a in ARTIFACTS + EXTRA_ARTIFACTS
    )


def mismatches(out_dir: Path) -> list[str]:
    """One line per artifact whose hash differs from the pinned one."""
    lines = []
    for name in CONFIGS:
        got = artifact_hashes(name, out_dir)
        pinned = GOLDEN[name] + GOLDEN_EXTRA[name]
        for artifact, want, have in zip(ARTIFACTS + EXTRA_ARTIFACTS, pinned, got, strict=True):
            if want != have:
                lines.append(f"{name}/{artifact}: pinned {want}, got {have}")
    return lines


def test_golden_artifacts(tmp_path):
    assert mismatches(tmp_path) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        bad = mismatches(Path(tmp))
    print("\n".join(bad) if bad else f"{len(CONFIGS)} golden configurations match")
    sys.exit(1 if bad else 0)
