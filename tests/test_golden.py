"""Golden fingerprints: four small runs whose artifacts must not change.

Each config runs through `harness.run` with an output directory. The test
hashes the bytes of `summary.json` and of every CSV, and the key, dtype,
shape and bytes of each array in `qnetwork.npz`, then compares them with the
pinned SHA-256 values below. A change that is meant to leave every number
alone (a refactor or a speed-up) must keep this test passing. A change that
alters the numbers re-pins them and says why.

Scope: the fingerprints are bitwise on one machine and one BLAS build
(OpenBLAS 0.3.31, Haswell kernel, numpy 2.4). Another CPU or BLAS may sum a
matrix product in another order and change the DQN's bits; the greedy and
random runs do no matrix products and should hold anywhere.

Print the current fingerprints with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rbshare.agent import AgentConfig
from rbshare.harness import ExperimentConfig, run


def golden_configs() -> dict:
    return {
        "dqn": ExperimentConfig(
            policy="dqn", episodes=1, steps_per_episode=100, checkpoint=True,
            eval_set=True, agent=AgentConfig(min_observations=100, target_sync=50)),
        "mt": ExperimentConfig(policy="mt", episodes=2, steps_per_episode=200),
        "ml+f": ExperimentConfig(policy="ml+f", episodes=2, steps_per_episode=200),
        "random": ExperimentConfig(policy="random", episodes=2, steps_per_episode=200),
    }


def fingerprint(out_dir: Path) -> dict:
    """SHA-256 of each artifact that carries a number, by file name."""
    prints = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "summary.json" or path.suffix == ".csv":
            prints[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.suffix == ".npz":
            h = hashlib.sha256()
            with np.load(path) as data:
                for key in sorted(data.files):
                    arr = data[key]
                    h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
            prints[path.name] = h.hexdigest()
    return prints


def run_fingerprint(name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        run(golden_configs()[name], out_dir=tmp)
        return fingerprint(Path(tmp))


GOLDEN = {
    'dqn': {
        'latency_type1.csv': '9b40515f561652ee020ad16cf1e9ff6dd3aefdb393c46a7aa14b4ec16351b312',
        'learning_curve.csv': '48b07296190fc19ba1dc983626363666d3663a5b1a106b940adc2fb32117bd95',
        'qnetwork.npz': 'f2232d269d34af2dcfcf964195cad74fe64b707c1a62016ed97e7ca23da853b2',
        'summary.json': 'c05170228890e80885539a3fc5f5de65827ba0e79218c0862537573d237d63f1',
    },
    'mt': {
        'latency_type1.csv': '91d84de2c3b21260c5d31034615b4cea9c189b95cb57779437028cb10f9aa1b0',
        'latency_type2.csv': '38a3237e3d39e2a57d7881949904bb5b9372b1ede73b38c70cbd46e6c88db09f',
        'latency_type3.csv': 'ddc32c9c2d29e2535f13a46f6e3b7380c9c2e79b229ab712423d3806246686d4',
        'learning_curve.csv': '6e21ff539baec0daed05e20ec0dcb16de36e965081b071d2bab575f3433b94e6',
        'summary.json': '8081d99f9618bf53e960b75f64392971d7f438a4ae9cc8f0e88c34aad46a4e6c',
    },
    'ml+f': {
        'latency_type1.csv': 'fbc7155a052cc16c29e8c13e3b06a440b6e9e9a7481ad11c1462fc3662325dc5',
        'latency_type2.csv': '38e8b3b93c0b5c584af5b9103926b9f67c9fba55924de1d148616d4a225f1b90',
        'latency_type3.csv': '8f03cc5dcd4a1448f81a9ceec2ecff095bfabbe6de8b81fc0c9bd4578fadf890',
        'learning_curve.csv': 'a3f23afae5ab2d072c96fa5a84412eccf22bd3f812e97903dca24e054698e6fd',
        'summary.json': '20fd30685c442bbc9e6c4d6fd3e6e38d8cdc6b78aaa32f30d52bc16c4d6bdfcd',
    },
    'random': {
        'latency_type1.csv': '9f54e16e52695df299540adcbd4037025cfce726d3b202f775e1a98907c6f202',
        'latency_type2.csv': '90bfac4478682019579935e3d39537e459e2c00d2b48a629cb7b3122a98da75a',
        'learning_curve.csv': '2680da150ecb5dd521dce3dba178d2891fa89f9ad7bbde23821423c47add6a6e',
        'summary.json': '1a60e5264ec78147028aea5941398f000312b88c2208fd0fcf0ea772365f4eed',
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    assert run_fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run_fingerprint(name) for name in golden_configs()},
                  stream=sys.stdout, width=100)
