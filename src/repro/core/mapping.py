"""Mapping results — what the runtime database stores.

After decomposing and partitioning, each accelerator has a set of
*deployment options*: frontiers of the partition tree, each cluster of which
has been compiled (via the HS abstraction) for every feasible FPGA type.
The runtime controller (Section 2.3) searches these records when the
hypervisor requests a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..resources import ResourceVector


@dataclass(frozen=True)
class ClusterImage:
    """One partition cluster compiled for one device type.

    ``virtual_blocks`` is how many of that device's identical virtual blocks
    the cluster occupies; ``frequency_hz`` the achieved clock.  ``artifact``
    names the pseudo-bitstream produced by the HS compiler.
    """

    cluster_index: int
    device_type: str
    virtual_blocks: int
    frequency_hz: float
    resources: ResourceVector
    artifact: str = ""


@dataclass
class DeploymentOption:
    """One frontier of the partition tree, compiled for all device types.

    ``images[cluster_index]`` maps device-type name to :class:`ClusterImage`
    (missing device types mean the cluster does not fit that type).
    ``cut_bits`` is the inter-cluster communication bandwidth this option
    pays per result when clusters land on different FPGAs.
    """

    accelerator: str
    option_id: str
    cluster_indices: list
    images: dict = field(default_factory=dict)
    cut_bits: int = 0

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_indices)

    def feasible_types(self, cluster_index: int) -> list:
        """Device types this cluster can be deployed on."""
        return sorted(self.images.get(cluster_index, {}))

    def is_deployable(self) -> bool:
        """True when every cluster fits at least one device type."""
        return all(self.images.get(ci) for ci in self.cluster_indices)


@dataclass
class AcceleratorMapping:
    """Everything the database stores for one compiled accelerator instance.

    The runtime policy sorts ``options`` by number of clusters ascending
    (the greedy fewest-FPGAs-first policy of Section 2.3).
    """

    accelerator: str
    instance_name: str
    options: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def sorted_options(self) -> list:
        """Options ordered by cluster count then cut bandwidth."""
        return sorted(
            (opt for opt in self.options if opt.is_deployable()),
            key=lambda opt: (opt.num_clusters, opt.cut_bits),
        )
