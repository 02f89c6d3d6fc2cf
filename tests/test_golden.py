"""Golden fingerprints: seven small runs whose artifacts must not change.

Each config runs through `harness.run` with an output directory.
`conftest.fingerprint` hashes the bytes of `summary.json`, of
`config_echo.txt` and of every CSV, and the key, dtype, shape and bytes of
each array in `qnetwork.npz`; the test compares these with the pinned SHA-256
values below. A change that is meant to leave every number alone (a refactor
or a speed-up) must keep this test passing. A change that alters the numbers
re-pins them and says why.

The last re-pin changed no number. `summary.json` lost the nine settings it
copied from the config (`policy`, `seed`, `buffer_len`, `continuity_len`,
`rate`, `alpha`, `beta`, `delta`, `licensed_rbs`), so each of its hashes
moved while every key it kept has the value it had. `config_echo.txt`, now
the one record of a run's settings, joined the fingerprint with its bytes
unchanged. No CSV or `qnetwork.npz` hash moved.

Scope: the fingerprints are bitwise on one machine and one BLAS build
(OpenBLAS 0.3.31, Haswell kernel, numpy 2.4). Every run goes through linear
algebra: each fading draw is a matrix-vector product with the square root of
the correlation matrix, and that root comes from LAPACK's `eigh`; the DQN
adds its matrix products. Another CPU, BLAS or LAPACK may round these
differently, so none of the fingerprints is promised to hold elsewhere.

Print the current fingerprints with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import sys
import tempfile
from pathlib import Path

import pytest

from conftest import fingerprint
from rbshare.agent import AgentConfig
from rbshare.channel import ChannelParams
from rbshare.harness import ExperimentConfig, run


def golden_configs() -> dict:
    return {
        "dqn": ExperimentConfig(
            policy="dqn", episodes=1, steps_per_episode=100, checkpoint=True,
            eval_set=True, agent=AgentConfig(min_observations=100, target_sync=50)),
        "mt": ExperimentConfig(policy="mt", episodes=2, steps_per_episode=200),
        "ml+f": ExperimentConfig(policy="ml+f", episodes=2, steps_per_episode=200),
        "random": ExperimentConfig(policy="random", episodes=2, steps_per_episode=200),
        # The continuity reward and the latency factor reach the DQN's
        # weights; small-scale fading is redrawn every time step.
        "dqn-shaped": ExperimentConfig(
            policy="dqn", episodes=1, steps_per_episode=100, checkpoint=True,
            eval_set=False, beta=0.5, delta=2.0, continuity_len=3,
            channel=ChannelParams(coherence_time=1),
            agent=AgentConfig(min_observations=100, target_sync=50)),
        "mt+f-low": ExperimentConfig(
            policy="mt+f", episodes=2, steps_per_episode=200, rate="low", buffer_len=3,
            channel=ChannelParams(corr_param=0.5)),
        # A 700-row replay ring wraps about seven times, so minibatches hold
        # episode ends that are not the newest row.
        "dqn-wrap": ExperimentConfig(
            policy="dqn", episodes=3, steps_per_episode=150, checkpoint=True,
            eval_set=True,
            agent=AgentConfig(replay_capacity=700, min_observations=200,
                              target_sync=50, hidden=(64, 64))),
    }


def run_fingerprint(name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        run(golden_configs()[name], out_dir=tmp)
        return fingerprint(Path(tmp))


GOLDEN = {
    'dqn': {
        'config_echo.txt': '96431d8525c62d4547ec78436c6cd1cfe5d72aa3cede9f5087b0c72b883d2afa',
        'latency_type1.csv': '9b40515f561652ee020ad16cf1e9ff6dd3aefdb393c46a7aa14b4ec16351b312',
        'learning_curve.csv': '48b07296190fc19ba1dc983626363666d3663a5b1a106b940adc2fb32117bd95',
        'qnetwork.npz': 'f2232d269d34af2dcfcf964195cad74fe64b707c1a62016ed97e7ca23da853b2',
        'summary.json': 'b05839c74492be709eb0c9ebe6e2a3966b062a17f7f2bb3bb8c90e01f49b1c2c',
    },
    'mt': {
        'config_echo.txt': '74e816b9e57426f8516af2cc57b2fa860ba9719d790c55b7d19f71878c4fc7bf',
        'latency_type1.csv': '91d84de2c3b21260c5d31034615b4cea9c189b95cb57779437028cb10f9aa1b0',
        'latency_type2.csv': '38a3237e3d39e2a57d7881949904bb5b9372b1ede73b38c70cbd46e6c88db09f',
        'latency_type3.csv': 'ddc32c9c2d29e2535f13a46f6e3b7380c9c2e79b229ab712423d3806246686d4',
        'learning_curve.csv': '6e21ff539baec0daed05e20ec0dcb16de36e965081b071d2bab575f3433b94e6',
        'summary.json': '1ed6b1a945f3cbe70c5e7304f6d5489557bf89ae236b29b68ed35900405e8193',
    },
    'ml+f': {
        'config_echo.txt': '0f5a5354d8c957a7922549c3aa1ef5419fec502e682a94129152e365ee8d3730',
        'latency_type1.csv': 'fbc7155a052cc16c29e8c13e3b06a440b6e9e9a7481ad11c1462fc3662325dc5',
        'latency_type2.csv': '38e8b3b93c0b5c584af5b9103926b9f67c9fba55924de1d148616d4a225f1b90',
        'latency_type3.csv': '8f03cc5dcd4a1448f81a9ceec2ecff095bfabbe6de8b81fc0c9bd4578fadf890',
        'learning_curve.csv': 'a3f23afae5ab2d072c96fa5a84412eccf22bd3f812e97903dca24e054698e6fd',
        'summary.json': '8af82c8221e905cf2a23fbea9e2d447cb9b56febd838cd9c5abc110aaa16f264',
    },
    'random': {
        'config_echo.txt': '72d070bbca357716f912749ebb2082232bdc925749ec77fe95ef11216b286e9a',
        'latency_type1.csv': '9f54e16e52695df299540adcbd4037025cfce726d3b202f775e1a98907c6f202',
        'latency_type2.csv': '90bfac4478682019579935e3d39537e459e2c00d2b48a629cb7b3122a98da75a',
        'learning_curve.csv': '2680da150ecb5dd521dce3dba178d2891fa89f9ad7bbde23821423c47add6a6e',
        'summary.json': 'ddc1ed008a71e66d0d520638c87c08ae1897c732a9f63ab6dcf9da796fb9f7f3',
    },
    'dqn-shaped': {
        'config_echo.txt': '9b9461c063dea89e6964f8544a07260f29fa8ba63fe5107baf947244df93ac2a',
        'latency_type1.csv': '7305a9c95d1d08b3b45e6d90acb068684105ca873d9bb3414a8beb8c0272595e',
        'learning_curve.csv': 'e95079b355f7122cbe7c58998797ef1cc0cf464fe0df23065405b598b2c9ce4f',
        'qnetwork.npz': '3448cec1f14a3c4bfdec62c01bc2b533938736ceb0310a27a790d5ecf5cff3b3',
        'summary.json': 'f326e1a924eea7000765675a74431db492ae2d000aa48926f2106a226c60216c',
    },
    'mt+f-low': {
        'config_echo.txt': '2ae2e92f723f0b5f98558ffd228d7ccb8f5d755f872d6a6392eeb4ada9732513',
        'latency_type1.csv': '864946e26c7e6aeb563c67f65857bf18b56e7e2da591f6f4f22953c13dced228',
        'latency_type2.csv': 'b4b0d2de7b301e47136194ead0229e12d90d442c0f573dd8ee7cabd9e6da144e',
        'latency_type3.csv': 'e3105f5dd0d2433c6f0deafecb755b0861fd8f02d86add89c7d84b4f4ee5f552',
        'learning_curve.csv': 'bab0014799b6a67ff34ad43b2a2969de4c92de457ae64f9c42c0190e2a5dcec1',
        'summary.json': '7e43a946eb25d468bf6edf16db4810812b1a7963cf1349d81de054be8004d7e8',
    },
    'dqn-wrap': {
        'config_echo.txt': 'af7c1fd114800c26588dd016506e16a746182adf68ee23054fb4a3e471522c7e',
        'latency_type1.csv': '229e6dec2ee13e4a612a382849d838d8b15ac3ee4de7a16524309aa31757ca85',
        'latency_type2.csv': '8c4e4c84747df2576532f8fabdd591b499912d60745bd4b63928d704bf93b8cc',
        'latency_type3.csv': 'e6f87ab0bc446062438ece73f0485fefb785796f60f76940d926e244fc0c1a13',
        'learning_curve.csv': 'e874944df0d6dd332d9fe07d23a528fb999a742a112eb2347156cefec35cdabc',
        'qnetwork.npz': '0914b286cc51119038caa320e002d7cdfe79d7aac33162dcd54ef8e1b4eff6b1',
        'summary.json': '58c14eb88665e4d050c288db4a4f387a9a4a79d059ad76f2b9bc238881fc9e28',
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name):
    assert run_fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run_fingerprint(name) for name in golden_configs()},
                  stream=sys.stdout, width=100)
