"""CNN substrate: layer/network descriptors, numpy execution, im2col,
perforation-interpolation, entropy, synthetic datasets and training.
"""

from repro.nn.datasets import Dataset, make_dataset, train_test_split
from repro.nn.entropy import entropy, max_entropy, mean_entropy, normalized_entropy
from repro.nn.inference import (
    NetworkParameters,
    forward,
    init_parameters,
    predict,
    softmax,
)
from repro.nn.layers import (
    ConvSpec,
    DenseSpec,
    PoolSpec,
    SoftmaxSpec,
    TensorShape,
)
from repro.nn.models import (
    PAPER_NETWORKS,
    PCNN_NET_SIZES,
    NetworkDescriptor,
    ResolvedLayer,
    alexnet,
    get_network,
    googlenet,
    pcnn_net,
    vgg16,
)
from repro.nn.perforation import (
    RATE_LADDER,
    GridPerforation,
    PerforationPlan,
    make_grid_perforation,
)
from repro.nn.persistence import load_parameters, save_parameters
from repro.nn.training import EvalResult, TrainingResult, evaluate, train

__all__ = [
    "ConvSpec",
    "DenseSpec",
    "PoolSpec",
    "SoftmaxSpec",
    "TensorShape",
    "NetworkDescriptor",
    "PAPER_NETWORKS",
    "PCNN_NET_SIZES",
    "ResolvedLayer",
    "alexnet",
    "get_network",
    "googlenet",
    "pcnn_net",
    "vgg16",
    "NetworkParameters",
    "forward",
    "init_parameters",
    "predict",
    "softmax",
    "GridPerforation",
    "PerforationPlan",
    "RATE_LADDER",
    "make_grid_perforation",
    "entropy",
    "max_entropy",
    "mean_entropy",
    "normalized_entropy",
    "Dataset",
    "make_dataset",
    "train_test_split",
    "load_parameters",
    "save_parameters",
    "EvalResult",
    "TrainingResult",
    "evaluate",
    "train",
]
