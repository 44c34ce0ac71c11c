"""Spatio-temporal CNN baseline for table-tennis stroke detection and
classification: 3D CNN kernels with hand-written backward passes, Nesterov
SGD training with validation-based model selection, annotation/proposal
tooling, uncompressed video sources, and the evaluation suite (hierarchical
confusion matrices and their accuracies, temporal mAP, global frame-wise IoU)."""

__version__ = "0.1.0"
