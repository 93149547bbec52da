"""CVAE-extended spatio-temporal graph convolutional trajectory predictor.

Subpackages:
    autodiff   - dense float64 tensors with reverse-mode differentiation
    data       - ETH/UCY-style parsing, resampling, windowing, caches
    graph      - per-frame weighted adjacency construction and normalization
    model      - prior / recognition / decoder networks and checkpoints
    losses     - the training objective: per-cell NLL and KL ops, annealing
    training   - SGD loop, splits, train-state checkpointing
    evaluation - best-of-K ADE/FDE, baselines, latency benchmarking
    synthetic  - synthetic corpus generation for desk-scale experiments
"""

__version__ = "0.1.0"
