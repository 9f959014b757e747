"""Network descriptors: the paper's three ImageNet CNNs plus the
trainable PcnnNet proxy family.

:class:`NetworkDescriptor` resolves a layer chain against an input
shape and exposes everything the P-CNN analytical models consume: per
conv layer GEMM shapes (batched), Eq. 1 FLOPs, parameter counts and the
memory profile that drives Table III's OOM cells.

The shape descriptors of **AlexNet**, **VGG-16** and **GoogLeNet** are
exact (grouped convolutions included -- Table IV's 128 x 729 CONV2
result matrix requires AlexNet's 2-group conv2).  GoogLeNet's inception
modules are resolved branch-by-branch, so its 57 convolutional layers
are all present.

The **PcnnNet-S/M/L** family substitutes for the three ImageNet winners
on the *accuracy* side of the evaluation (Table I, Fig. 16): three
trainable numpy networks of increasing capacity over the synthetic
dataset of :mod:`repro.nn.datasets`.  See DESIGN.md for the
substitution rationale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.gpu.kernels import GemmShape
from repro.gpu.memory import NetworkMemoryProfile
from repro.nn.layers import (
    ConvSpec,
    DenseSpec,
    PoolSpec,
    SoftmaxSpec,
    TensorShape,
)
from repro.obs.metrics import ordered_sum

__all__ = [
    "ResolvedLayer",
    "NetworkDescriptor",
    "alexnet",
    "vgg16",
    "googlenet",
    "resnet18",
    "pcnn_net",
    "PCNN_NET_SIZES",
    "PAPER_NETWORKS",
    "get_network",
]

LayerSpec = Union[ConvSpec, PoolSpec, DenseSpec, SoftmaxSpec]


@dataclass(frozen=True)
class ResolvedLayer:
    """A layer spec bound to its input/output shapes within a network."""

    index: int
    spec: LayerSpec
    input_shape: TensorShape
    output_shape: TensorShape

    @property
    def name(self) -> str:
        """The spec's layer name."""
        return self.spec.name

    @property
    def is_conv(self) -> bool:
        """Whether this is a convolutional layer."""
        return isinstance(self.spec, ConvSpec)

    @property
    def flops(self) -> float:
        """FLOPs of this layer for one image."""
        return self.spec.flops(self.input_shape)

    @property
    def weight_count(self) -> int:
        """Trainable parameters."""
        return self.spec.weight_count(self.input_shape)


class NetworkDescriptor:
    """A CNN as a resolved sequence of layers.

    Linear chains resolve automatically from specs; DAG-shaped networks
    (GoogLeNet) construct their resolved list explicitly via
    :meth:`from_resolved`.
    """

    #: ``(name, input_shape, fingerprint)`` as last hashed by
    #: :meth:`fingerprint`.
    _fingerprint: Optional[Tuple[str, TensorShape, str]] = None

    def __init__(
        self,
        name: str,
        input_shape: TensorShape,
        specs: Sequence[LayerSpec],
    ) -> None:
        self.name = name
        self.input_shape = input_shape
        resolved: List[ResolvedLayer] = []
        shape = input_shape
        for index, spec in enumerate(specs):
            out = spec.output_shape(shape)
            resolved.append(ResolvedLayer(index, spec, shape, out))
            shape = out
        self._layers = resolved
        self.output_shape = shape

    @classmethod
    def from_resolved(
        cls,
        name: str,
        input_shape: TensorShape,
        layers: Sequence[ResolvedLayer],
        output_shape: TensorShape,
    ) -> "NetworkDescriptor":
        """Construct from pre-resolved layers (branching networks)."""
        network = cls.__new__(cls)
        network.name = name
        network.input_shape = input_shape
        network._layers = list(layers)
        network.output_shape = output_shape
        return network

    # ------------------------------------------------------------------
    @property
    def layers(self) -> List[ResolvedLayer]:
        """All resolved layers in execution order."""
        return list(self._layers)

    @property
    def conv_layers(self) -> List[ResolvedLayer]:
        """Only the convolutional layers (the GEMM-bound ones)."""
        return [layer for layer in self._layers if layer.is_conv]

    @property
    def n_classes(self) -> int:
        """Classifier width (channels of the final output)."""
        return self.output_shape.channels

    def fingerprint(self) -> str:
        """Structural fingerprint: the name plus a digest over every
        resolved layer's spec and shapes.

        Hashed once per descriptor; rebinding ``name`` or
        ``input_shape`` makes the next call hash again.
        """
        memo = self._fingerprint
        if memo is not None and memo[0] is self.name and memo[1] is self.input_shape:
            return memo[2]
        parts = [self.name, repr(self.input_shape)]
        for layer in self._layers:
            parts.append(
                "%d|%s|%r|%r|%r"
                % (layer.index, layer.name, layer.spec, layer.input_shape,
                   layer.output_shape)
            )
        digest = hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()[:16]
        fingerprint = "%s@%s" % (self.name, digest)
        self._fingerprint = (self.name, self.input_shape, fingerprint)
        return fingerprint

    def layer(self, name: str) -> ResolvedLayer:
        """Look up a resolved layer by name."""
        for layer in self._layers:
            if layer.name == name:
                return layer
        raise KeyError("%s has no layer named %r" % (self.name, name))

    # ------------------------------------------------------------------
    # Quantities the performance models consume
    # ------------------------------------------------------------------
    def total_flops(self) -> float:
        """FLOPs of a full forward pass for one image."""
        return ordered_sum(layer.flops for layer in self._layers)

    def total_weights(self) -> int:
        """Trainable parameter count."""
        return sum(layer.weight_count for layer in self._layers)

    def gemm_shape(self, layer: ResolvedLayer, batch: int = 1) -> GemmShape:
        """The per-group SGEMM of a conv layer, batch folded into N.

        Fig. 2's lowering: M = N_f / groups, K = S_f^2 * N_c / groups,
        N = W_o * H_o * batch.  Grouped layers launch ``groups``
        identical GEMMs (handled by :meth:`gemm_count`).
        """
        if not layer.is_conv:
            raise ValueError("%s is not a conv layer" % (layer.name,))
        if batch < 1:
            raise ValueError("batch must be >= 1")
        m, k, n = layer.spec.gemm_dims_per_group(layer.input_shape)
        return GemmShape(m_rows=m, n_cols=n * batch, k_depth=k)

    def gemm_count(self, layer: ResolvedLayer) -> int:
        """Number of identical per-group GEMMs the layer launches."""
        if not layer.is_conv:
            raise ValueError("%s is not a conv layer" % (layer.name,))
        return layer.spec.groups

    def memory_profile(self) -> NetworkMemoryProfile:
        """Per-image memory characteristics (Table III's OOM driver)."""
        activation = self.input_shape.elements
        max_im2col = 0
        n_conv = 0
        for layer in self._layers:
            activation += layer.output_shape.elements
            if layer.is_conv:
                n_conv += 1
                max_im2col = max(
                    max_im2col, layer.spec.im2col_bytes(layer.input_shape)
                )
        return NetworkMemoryProfile(
            weights_bytes=4 * self.total_weights(),
            activation_bytes_per_image=4 * activation,
            max_im2col_bytes_per_image=max_im2col,
            n_conv_layers=max(n_conv, 1),
        )

    def describe(self) -> str:
        """Multi-line per-layer summary."""
        lines = [
            "%s: input %s, %.2f GFLOPs/image, %.1f M params"
            % (
                self.name,
                self.input_shape.as_tuple(),
                self.total_flops() / 1e9,
                self.total_weights() / 1e6,
            )
        ]
        for layer in self._layers:
            lines.append(
                "  [%2d] %-22s %s -> %s"
                % (
                    layer.index,
                    layer.name,
                    layer.input_shape.as_tuple(),
                    layer.output_shape.as_tuple(),
                )
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The paper's three ImageNet networks (shape-exact descriptors)
# ----------------------------------------------------------------------

def alexnet() -> NetworkDescriptor:
    """AlexNet [1] in its Caffe form: 5 convs (conv2/4/5 grouped),
    3 max pools, 3 classifier layers.  CONV2's per-group result matrix
    is 128 x 729 and CONV5's is 128 x 169 -- Table IV's rows."""
    specs = [
        ConvSpec("conv1", out_channels=96, kernel_size=11, stride=4),
        PoolSpec("pool1", kernel_size=3, stride=2),
        ConvSpec("conv2", out_channels=256, kernel_size=5, padding=2, groups=2),
        PoolSpec("pool2", kernel_size=3, stride=2),
        ConvSpec("conv3", out_channels=384, kernel_size=3, padding=1),
        ConvSpec("conv4", out_channels=384, kernel_size=3, padding=1, groups=2),
        ConvSpec("conv5", out_channels=256, kernel_size=3, padding=1, groups=2),
        PoolSpec("pool5", kernel_size=3, stride=2),
        DenseSpec("fc6", units=4096),
        DenseSpec("fc7", units=4096),
        DenseSpec("fc8", units=1000, activation="none"),
        SoftmaxSpec(),
    ]
    return NetworkDescriptor("AlexNet", TensorShape(3, 227, 227), specs)


def vgg16() -> NetworkDescriptor:
    """VGG-16 [4]: 13 3x3 convolutions in five blocks, 3 classifiers.
    ~1.5e10 FLOPs per image, the paper's Section I headline number."""
    cfg = [
        (2, 64),
        (2, 128),
        (3, 256),
        (3, 512),
        (3, 512),
    ]
    specs: List[LayerSpec] = []
    for block, (repeat, channels) in enumerate(cfg, start=1):
        for i in range(1, repeat + 1):
            specs.append(
                ConvSpec(
                    "conv%d_%d" % (block, i),
                    out_channels=channels,
                    kernel_size=3,
                    padding=1,
                )
            )
        specs.append(PoolSpec("pool%d" % block, kernel_size=2, stride=2))
    specs += [
        DenseSpec("fc6", units=4096),
        DenseSpec("fc7", units=4096),
        DenseSpec("fc8", units=1000, activation="none"),
        SoftmaxSpec(),
    ]
    return NetworkDescriptor("VGGNet", TensorShape(3, 224, 224), specs)


def resnet18() -> NetworkDescriptor:
    """ResNet-18 (post-paper, 2016): demonstrates the descriptors
    generalize beyond the paper's three subjects.

    Residual shortcuts are *adds*, which cost no GEMMs and negligible
    FLOPs, so the linearized layer list (conv1, 16 block convs, 3
    1x1-stride-2 downsample convs, classifier) captures everything the
    performance models consume; shortcut adds are priced into the aux
    (bandwidth-bound) time like pooling.
    """
    layers: List[ResolvedLayer] = []
    index = 0

    def emit(spec: LayerSpec, in_shape: TensorShape) -> TensorShape:
        nonlocal index
        out = spec.output_shape(in_shape)
        layers.append(ResolvedLayer(index, spec, in_shape, out))
        index += 1
        return out

    shape = TensorShape(3, 224, 224)
    shape = emit(ConvSpec("conv1", 64, 7, stride=2, padding=3), shape)
    shape = emit(PoolSpec("pool1", 3, 2, padding=1), shape)
    stage_channels = (64, 128, 256, 512)
    for stage, channels in enumerate(stage_channels, start=1):
        for block in (1, 2):
            prefix = "layer%d.%d" % (stage, block)
            stride = 2 if stage > 1 and block == 1 else 1
            block_input = shape
            shape = emit(
                ConvSpec("%s.conv1" % prefix, channels, 3, stride=stride,
                         padding=1),
                block_input,
            )
            shape = emit(
                ConvSpec("%s.conv2" % prefix, channels, 3, padding=1,
                         activation="none"),
                shape,
            )
            if stride == 2:
                # 1x1 stride-2 projection shortcut.
                emit(
                    ConvSpec("%s.downsample" % prefix, channels, 1,
                             stride=2, activation="none"),
                    block_input,
                )
    shape = emit(PoolSpec("avgpool", 7, 1, mode="avg"), shape)
    shape = emit(DenseSpec("fc", 1000, activation="none"), shape)
    shape = emit(SoftmaxSpec(), shape)
    return NetworkDescriptor.from_resolved(
        "ResNet18", TensorShape(3, 224, 224), layers, shape
    )


#: Inception module channel configs: (1x1, 3x3 reduce, 3x3, 5x5 reduce,
#: 5x5, pool projection).
_INCEPTION_CFG = {
    "3a": (64, 96, 128, 16, 32, 32),
    "3b": (128, 128, 192, 32, 96, 64),
    "4a": (192, 96, 208, 16, 48, 64),
    "4b": (160, 112, 224, 24, 64, 64),
    "4c": (128, 128, 256, 24, 64, 64),
    "4d": (112, 144, 288, 32, 64, 64),
    "4e": (256, 160, 320, 32, 128, 128),
    "5a": (256, 160, 320, 32, 128, 128),
    "5b": (384, 192, 384, 48, 128, 128),
}


def googlenet() -> NetworkDescriptor:
    """GoogLeNet [13]: stem + 9 inception modules = 57 convolutions.

    Inception branches all read the module input; the module output is
    the channel concatenation of the four branches.  The resolved layer
    list linearizes the DAG (each conv is its own GPU kernel anyway,
    which is all the performance models care about), while activation
    accounting includes every branch intermediate.
    """
    layers: List[ResolvedLayer] = []
    index = 0

    def emit(spec: LayerSpec, in_shape: TensorShape) -> TensorShape:
        nonlocal index
        out = spec.output_shape(in_shape)
        layers.append(ResolvedLayer(index, spec, in_shape, out))
        index += 1
        return out

    shape = TensorShape(3, 224, 224)
    shape = emit(ConvSpec("conv1/7x7_s2", 64, 7, stride=2, padding=3), shape)
    shape = emit(PoolSpec("pool1/3x3_s2", 3, 2, padding=1), shape)
    shape = emit(ConvSpec("conv2/3x3_reduce", 64, 1), shape)
    shape = emit(ConvSpec("conv2/3x3", 192, 3, padding=1), shape)
    shape = emit(PoolSpec("pool2/3x3_s2", 3, 2, padding=1), shape)

    for key in ("3a", "3b"):
        shape = _emit_inception(emit, key, shape)
    shape = emit(PoolSpec("pool3/3x3_s2", 3, 2, padding=1), shape)
    for key in ("4a", "4b", "4c", "4d", "4e"):
        shape = _emit_inception(emit, key, shape)
    shape = emit(PoolSpec("pool4/3x3_s2", 3, 2, padding=1), shape)
    for key in ("5a", "5b"):
        shape = _emit_inception(emit, key, shape)
    shape = emit(PoolSpec("pool5/7x7_s1", 7, 1, mode="avg"), shape)
    shape = emit(DenseSpec("loss3/classifier", 1000, activation="none"), shape)
    shape = emit(SoftmaxSpec(), shape)

    return NetworkDescriptor.from_resolved(
        "GoogLeNet", TensorShape(3, 224, 224), layers, shape
    )


def _emit_inception(emit, key: str, in_shape: TensorShape) -> TensorShape:
    """Resolve one inception module; returns the concat output shape."""
    c1, c3r, c3, c5r, c5, pp = _INCEPTION_CFG[key]
    prefix = "inception_%s" % key
    # Branch 1: 1x1
    b1 = emit(ConvSpec("%s/1x1" % prefix, c1, 1), in_shape)
    # Branch 2: 1x1 reduce -> 3x3
    b2 = emit(ConvSpec("%s/3x3_reduce" % prefix, c3r, 1), in_shape)
    b2 = emit(ConvSpec("%s/3x3" % prefix, c3, 3, padding=1), b2)
    # Branch 3: 1x1 reduce -> 5x5
    b3 = emit(ConvSpec("%s/5x5_reduce" % prefix, c5r, 1), in_shape)
    b3 = emit(ConvSpec("%s/5x5" % prefix, c5, 5, padding=2), b3)
    # Branch 4: 3x3 maxpool -> 1x1 projection
    b4 = emit(PoolSpec("%s/pool" % prefix, 3, 1, padding=1), in_shape)
    b4 = emit(ConvSpec("%s/pool_proj" % prefix, pp, 1), b4)
    concat_channels = b1.channels + b2.channels + b3.channels + b4.channels
    return TensorShape(concat_channels, b1.height, b1.width)


# ----------------------------------------------------------------------
# Trainable proxy family for the accuracy-side experiments
# ----------------------------------------------------------------------

#: Capacity tiers mirroring the AlexNet < VGGNet < GoogLeNet accuracy
#: ordering of Table I.
PCNN_NET_SIZES = ("small", "medium", "large")

#: Synthetic-task geometry shared by the proxy family.
PCNN_INPUT_SHAPE = TensorShape(3, 24, 24)
PCNN_N_CLASSES = 8


def pcnn_net(size: str = "medium") -> NetworkDescriptor:
    """A trainable proxy CNN: small/medium/large capacity tiers.

    All three are pure linear chains (conv/pool/dense) so the numpy
    trainer in :mod:`repro.nn.training` can execute them directly.
    """
    if size not in PCNN_NET_SIZES:
        raise ValueError(
            "size must be one of %s, got %r" % (PCNN_NET_SIZES, size)
        )
    if size == "small":
        specs: List[LayerSpec] = [
            ConvSpec("conv1", 4, 3, padding=1, activation="leaky"),
            PoolSpec("pool1", kernel_size=2, stride=2),
            DenseSpec("fc", units=PCNN_N_CLASSES, activation="none"),
            SoftmaxSpec(),
        ]
    elif size == "medium":
        specs = [
            ConvSpec("conv1", 12, 3, padding=1, activation="leaky"),
            ConvSpec("conv2", 12, 3, padding=1, activation="leaky"),
            PoolSpec("pool1", kernel_size=2, stride=2),
            DenseSpec("fc1", units=24, activation="leaky"),
            DenseSpec("fc2", units=PCNN_N_CLASSES, activation="none"),
            SoftmaxSpec(),
        ]
    else:
        specs = [
            ConvSpec("conv1", 16, 3, padding=1, activation="leaky"),
            ConvSpec("conv2", 24, 3, padding=1, activation="leaky"),
            PoolSpec("pool1", kernel_size=2, stride=2),
            ConvSpec("conv3", 24, 3, padding=1, activation="leaky"),
            PoolSpec("pool2", kernel_size=2, stride=2),
            DenseSpec("fc1", units=48, activation="leaky"),
            DenseSpec("fc2", units=PCNN_N_CLASSES, activation="none"),
            SoftmaxSpec(),
        ]
    return NetworkDescriptor("PcnnNet-%s" % size, PCNN_INPUT_SHAPE, specs)


#: The three characterized ImageNet networks, by canonical name.
PAPER_NETWORKS = {
    "alexnet": alexnet,
    "vggnet": vgg16,
    "googlenet": googlenet,
}

#: Networks beyond the paper's evaluation set, for generality tests.
EXTRA_NETWORKS = {
    "resnet18": resnet18,
}


def get_network(name: str) -> NetworkDescriptor:
    """Build a network by name (paper networks + ``pcnn-small`` etc.)."""
    key = name.strip().lower()
    if key in PAPER_NETWORKS:
        return PAPER_NETWORKS[key]()
    if key in EXTRA_NETWORKS:
        return EXTRA_NETWORKS[key]()
    if key in ("vgg", "vgg16"):
        return vgg16()
    if key in ("resnet", "resnet-18"):
        return resnet18()
    if key.startswith("pcnn-"):
        return pcnn_net(key.split("-", 1)[1])
    known = (
        sorted(PAPER_NETWORKS)
        + sorted(EXTRA_NETWORKS)
        + ["pcnn-%s" % s for s in PCNN_NET_SIZES]
    )
    raise KeyError("unknown network %r; known: %s" % (name, ", ".join(known)))
