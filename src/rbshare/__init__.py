"""Downlink resource-block scheduling simulator with spectrum-sharing metrics.

Modules:
    channel     -- fading, SINR, CQI link adaptation
    traffic     -- Poisson request generation
    environment -- the scheduling MDP (buffer, continuity, rewards)
    agent       -- numpy DQN plus greedy baseline policies
    metrics     -- spectral efficiency, ratios, latency accounting
    harness     -- experiment configuration and orchestration
"""
