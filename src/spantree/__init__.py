"""spantree: span-invariance charts, tree projection, and training dynamics.

The package measures how context-invariant a transformer's span
representations are (SCI charts), induces binary trees that minimize that
invariance score, evaluates them against gold brackets, and tracks how
tree-structuredness evolves over training — plus the supporting pieces: a
float64 autodiff tape, a small transformer, synthetic transduction data with
gold trees, and seeded statistics.
"""

from .datasets import Corpus, TransductionExample, Vocab, generate_expressions, make_cg_split
from .encoder import EncoderConfig, LayerMask, TransformerModel, load_checkpoint, save_checkpoint
from .errors import CheckpointError, ContractViolation, TrainingDiverged
from .experiments import (
    assumption_gap,
    dynamics_report,
    perturbation_analysis,
    write_dynamics_csv,
)
from .numerics import OptimizerState, Tensor, backward, cosine_distance, optimizer_step
from .projector import ProjectionResult, exact_project, greedy_project, t_score
from .spanrep import SciChart, Span, build_sci_chart, build_t_mask, context_free_vector, contextual_span_vector
from .training import train_mlm, train_probe, train_seq2seq
from .treeval import baseline_tree, corpus_parseval, delinearize, linearize, parseval_f1

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "ContractViolation",
    "Corpus",
    "EncoderConfig",
    "LayerMask",
    "OptimizerState",
    "ProjectionResult",
    "SciChart",
    "Span",
    "Tensor",
    "TrainingDiverged",
    "TransductionExample",
    "TransformerModel",
    "Vocab",
    "assumption_gap",
    "backward",
    "baseline_tree",
    "build_sci_chart",
    "build_t_mask",
    "context_free_vector",
    "contextual_span_vector",
    "corpus_parseval",
    "cosine_distance",
    "delinearize",
    "dynamics_report",
    "exact_project",
    "generate_expressions",
    "greedy_project",
    "linearize",
    "load_checkpoint",
    "make_cg_split",
    "optimizer_step",
    "parseval_f1",
    "perturbation_analysis",
    "save_checkpoint",
    "t_score",
    "train_mlm",
    "train_probe",
    "train_seq2seq",
    "write_dynamics_csv",
]
