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
        "a1e29d5ecfc19dcd2a079e38c5cb75e219373acc084ad799f9b5fbd5023eadf2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "51c4e769e17108930883d97c7c65e303d1cd4c227d99165611ca9974b556983e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "warmup_w30": (
        "1c6e048f6612e34e88746d6517d4241c8a177bbd03ce14fea9265cd1d06bb801",
        "5b808de4095927b8c27e2d0006af0aef290c58b5794fd90d6505c019c11c5151",
        "69af05e2f7d0a7c5131251589448737d47078e667955c1d75f3ced5973d97ad1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "warmup_w100": (
        "18d83a7ffcdff02b416bc38c8b1d3d4a55b1a2c26f18bc1ea97014528618e8fb",
        "e27ec19020cd240a1be503a26b2b6b0a1b4e8c0c7cb9d88b8e542035c8865eaf",
        "3008e0e73db971338a725fdc8cae9a9335ba3a05270daa40a47800cba822b5e4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "semantic": (
        "e324b1d863819350a6b459eb6da8f4ecbd6623f32a523058980072bbbccec919",
        "d217a4c4922a57d5769d7e6c39b794807e4b3c76677540e7dfa5f1196e8c34e1",
        "2bf44ee8e12bd354354db43e3748b2159ef58b1485a5370367ebaae18c923387",
        "430de6978d0fa80a609338d1b6a1bf0ffa9e141cdcc5f50292072ac2f3a63c8b",
    ),
    "churn": (
        "d6589c6052619a68354b660e16f121f4c68dd10f0f7e4fcab2ad78c5e2563005",
        "447fd77b8f1db340d0abd7ade0e12347c95dd604f4a579b35cfe316ec22aef4a",
        "49394e3258d4358ce3c819c755b6df4656a87cd968c1bf65e0bfad4ce622b9f0",
        "63b9ce45be1e1eb3cbcc76b1fbbdbdf28d10556a6150685e369e320235599de9",
    ),
    "drift": (
        "8461bef0ffff3575d72a9457f4bd8c0f3599e8af8e90d8892724e9e8e860540c",
        "b38e461d94227174adc0046d55222eec875f647b18e8bbd69b122c746663e918",
        "501205b768020fa298aefb84d36ab5a059822a92f400979914c04a2c2eec4743",
        "4a5b5bf81a8bc513fc3fe69411f3c9ddfaa6014ee4feb592c6dfbdfbd5af19f3",
    ),
    "semantic_h600_lam2": (
        "86dace90fd5e0cedae8325f988421e2874490f17de529d79e08d79b3fd500b22",
        "0d962be13699e928f3d2499741555ca602b7d5b6cbd7ec565a73667029036c0e",
        "cd8092010771003760b0eebf71359d8c76bdf9a21af4255e3c4913bebb680ea1",
        "d85e41ac1ab9e6bd06f4cd6e99fc1fd93cfffa9aaa6620353820f8e5fb53d60d",
    ),
    "churn_h600_lam2": (
        "bbccec6b0334f0e354d691528ad3ebaf1431d748181357414f070f7139ed5653",
        "0b6218746d957ef3c25b865db1162fcecfc553302bc6cfb639c3a6975a70fa82",
        "868abf978ae93608142efa070b1b204f902bb1bbcb9b85537c39dd2eff7718ba",
        "5ab7b182c7515ed25d260d1055789696267e116250ae3c8f284c9f1a235cc4c5",
    ),
    "drift_h600_lam2": (
        "99c8be12513986971d70387ca6d492dee2b52cdb477deb024e5a7715b3351d11",
        "9674ea6af5c20540f6329bde41d054c1b9d50004ef7b7d71793c0530cc703beb",
        "3de4e3204a12b5e5c7eea022484bc1625f91947b07d62d576add4f6b3a365baf",
        "ca5ce8062d114a225145c586cd01741061cf8baffde78ea65e135d166577c729",
    ),
    "mixed_plan_h400_lam2": (
        "2a88d44e004689761648de408679727637fcf33dd6b186895ba2f2821b2ed1c4",
        "9f0d7188d4694f9ef20aa0c1a05296b5ac03a7b82053744518d59d37879575be",
        "93241425621bb6d6619fce5a3cd064d1bca906fb13482d6271868980eea87645",
        "018738dde63159cf164ee1e200f4e2f5fc1a27e18093681fb7e505c3f2398c43",
    ),
}

# name -> EXTRA_ARTIFACTS, in that order
GOLDEN_EXTRA: dict[str, tuple[str, str, str, str, str]] = {
    "warmup_w0": (
        "f5ee9505c7547cc91c15bc0311d3252ea73e8fa30225298cfe61e58c740b4c04",
        "f5ee9505c7547cc91c15bc0311d3252ea73e8fa30225298cfe61e58c740b4c04",
        "1d558edab1abf7b30e8e196ce15b210b69094d9c7fba382fb0eea08e8d97c9d9",
        "28aa09175eac7faa2bb645abc7fb46e1e1b7cd6af543d2e6a259164c49999e7a",
        "a73b9764c1532bf9d1cf0549ea9bc0566aeeba2c7d62e1750572d6fdc781af12",
    ),
    "warmup_w30": (
        "ef9454cb8932af869fbf945e2744c3da3bb5b4e06437c1a0f9b757c9aa23514d",
        "f5ee9505c7547cc91c15bc0311d3252ea73e8fa30225298cfe61e58c740b4c04",
        "1d558edab1abf7b30e8e196ce15b210b69094d9c7fba382fb0eea08e8d97c9d9",
        "28aa09175eac7faa2bb645abc7fb46e1e1b7cd6af543d2e6a259164c49999e7a",
        "5ebbc8f54563536ddf1c2252e74c5431e48f7cc9fbee91fb67926911eafc194f",
    ),
    "warmup_w100": (
        "eb873e7ca6aea9ba0081d53829bf040e0a3c9bff85d50f263e43f5802762bc02",
        "f5ee9505c7547cc91c15bc0311d3252ea73e8fa30225298cfe61e58c740b4c04",
        "1d558edab1abf7b30e8e196ce15b210b69094d9c7fba382fb0eea08e8d97c9d9",
        "28aa09175eac7faa2bb645abc7fb46e1e1b7cd6af543d2e6a259164c49999e7a",
        "747b05d1641a5cac5d8dca2f246ef1bebe331894cad64fd9f8351fb42ff9df8a",
    ),
    "semantic": (
        "2412a9ea010d13f67eda7909efad69708b164ebeb2f19d532ed17d3db458b1f0",
        "64dfb16305af7de2c42f379eaa35fb0244d497506307271e06c1999b1f68f5de",
        "2412a9ea010d13f67eda7909efad69708b164ebeb2f19d532ed17d3db458b1f0",
        "f8918db4b16caba6a8bf7352b24baf9a6c8214f7767d5ab5c2a030737abf9faf",
        "0d346dc6093fd7bf8f1b4a8d7149dd1c4b45d9a2e6b8dc6bc3fd1d32f3a1e067",
    ),
    "churn": (
        "d1c81f8782d76a76a47531ceddbcb13b0c97dd7129c5211915e622b6f92fb311",
        "07f70c9171dd1cf1f80faa02452f14df814b0287e8cd48a2fd97ffdda3630ee0",
        "d1c81f8782d76a76a47531ceddbcb13b0c97dd7129c5211915e622b6f92fb311",
        "79f456d017b49b45b123d9c5a2ae835c5729cc2c0d03c0004f3870faa15d5526",
        "5b6c46be2cf2539e937a9409e4a1262207d6ee57c198612d88939c62d0d3d6e0",
    ),
    "drift": (
        "71bfead6a12f05691232fb7f0062f2d896c15a97c2e5fd9247757b132a648c5a",
        "cd2e0f22a2abba62bc9e30c2ff3877a2a208c966fcf1f56218e80d9cc4242b1c",
        "3e859d383e04e2152934ccf62ef7dd08281fea79f56c9b43f0278ddfea61a831",
        "fda95f382139aadd55a74f212af02e6242f072a76fc1acbbf2974ef2f2225cd8",
        "22960f14c8cf54e8ee2839626eb8f928fcbeb21879569892284efb88891a74ce",
    ),
    "semantic_h600_lam2": (
        "be779a3bd3e506c4bf04248802e1cdaf7bc62c4853fc06e53bcc889717375ac8",
        "6d5b301217f14ac5fd2452da9c08b6d7366aee9050c48be6a6edec9f3e8b567d",
        "e86d1afc8e9f711a09b5b5df193b4389e10b01547fd9ca8c4f040ac3805416ca",
        "a80d234ffd9222d39a512edaf1a23b77333e1413e4b4707b29260b8e666e8387",
        "0fd703f6fb69ed862d593cf06a210f9bf13c62f154a165999c3bd16c730e1307",
    ),
    "churn_h600_lam2": (
        "f4b0c2ae0a6363fb754854344aa3fcd3fc7a28406c26147bafb15f19909b132a",
        "49403e7845983f8b144082133a4892d37b15745158131b49702c49994a113953",
        "16ebb668c16f3cf93a8355acacf4c7328adc79fb139a88e804c02b00b0cb6386",
        "d34ef791d8887e37ad1a33073d5ac1401eaeaec3afc2c5fe6fcbda5fe3449f62",
        "5b35864f5a433aab157e2a6de3a6a472a189da1267d93abf53ee82af06d9983e",
    ),
    "drift_h600_lam2": (
        "3ae03e99c1f2fd01fb33661804bf86af750741eec64d5519f0080c83ca34a905",
        "ec9f8c05987337b460ed648317e6aaff276363f2e9c6a034eb01f554813e753b",
        "d6e0fb63c6ebd0052a291dfe3f7067cc8bce808b37cdbb851454cf5df9ea054e",
        "d13f4187dc557d2a74f7ec77c4f885a93efd70bbc1862ec2cb9f1f8dd2440502",
        "a5103b9ca64542d656fb479afd617f1cf9c5e74998316d0653738e4c98d9b397",
    ),
    "mixed_plan_h400_lam2": (
        "94f91c8b445633a67ade8768cf0f87b9ffed7ef97c5efecc4f48b7f7cf4dcdf8",
        "4515c42a31704c73d6c7147325ce7541ca5ad2ddc97ad113c19da8bb31e2aaef",
        "4f915d6738ef1772eff46cfab1463111cba53514d8b1c945efe74e2952d957e0",
        "d360128dbf2d631daa146e110a12a78e9774eb3f0edbe67b9dc6401273df7fd4",
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
