"""Desk-scale extreme multi-label classification engine.

Trains a shared bag-of-tokens encoder with a dual-encoder retrieval head and
a per-label classifier table in one loop: clustered negative-mining-aware
batches, multi-positive softmax losses in both anchoring directions, mined
hard negatives refreshed on a schedule, and exact top-k inference over dual,
classifier, or concatenated label representations, scored in (query block x
label tile) pairs of bounded memory.
"""

from .batching import (CollatedBatch, batch_stats, cluster_queries,
                       collate_batch, keyed_sample)
from .data import (Dataset, Vocabulary, featurize_all, load_dataset,
                   make_dataset, synth_dataset)
from .errors import (ConfigError, DatasetFormatError, DegenerateEmbeddingError,
                     TrainingAbort, XmcliteError)
from .infer import (LabelIndex, build_index, label_vectors, predict,
                    predict_vectors, query_vectors, read_predictions, topk,
                    write_predictions)
from .losses import (classifier_loss, loss_parts, retrieval_loss,
                     symmetric_pool_loss)
from .metrics import METRICS_SCHEMA, metrics_report, propensity
from .model import (ForwardTrace, Grads, ModelParams, backward, forward,
                    init_params, load_checkpoint, save_checkpoint, zero_grads)
from .negatives import HardNegativeCache, mine_hard_negatives
from .optim import Adam
from .train import TrainConfig, TrainReport, evaluate_model, train

__version__ = "0.1.0"
