"""Tests for mapping records and tree rendering."""

from repro.core import render_tree
from repro.core.mapping import AcceleratorMapping, ClusterImage, DeploymentOption
from repro.core.softblock import data_block, leaf_block
from repro.core.visualize import render_partition
from repro.resources import ResourceVector


def _image(cluster, device, blocks):
    return ClusterImage(
        cluster_index=cluster,
        device_type=device,
        virtual_blocks=blocks,
        frequency_hz=4e8,
        resources=ResourceVector(luts=100.0),
    )


def _option(option_id, clusters, images, cut_bits=0):
    option = DeploymentOption(
        accelerator="acc",
        option_id=option_id,
        cluster_indices=clusters,
        cut_bits=cut_bits,
    )
    for cluster, per_device in images.items():
        option.images[cluster] = per_device
    return option


class TestDeploymentOption:
    def test_feasible_types_sorted(self):
        option = _option(
            "o1", [1], {1: {"B": _image(1, "B", 2), "A": _image(1, "A", 3)}}
        )
        assert option.feasible_types(1) == ["A", "B"]

    def test_deployable_requires_all_clusters(self):
        option = _option("o1", [1, 2], {1: {"A": _image(1, "A", 2)}, 2: {}})
        assert not option.is_deployable()

    def test_deployable_true(self):
        option = _option(
            "o1", [1, 2],
            {1: {"A": _image(1, "A", 2)}, 2: {"A": _image(2, "A", 2)}},
        )
        assert option.is_deployable()

    def test_num_clusters(self):
        option = _option("o", [3, 4, 5], {3: {}, 4: {}, 5: {}})
        assert option.num_clusters == 3


class TestAcceleratorMapping:
    def _mapping(self):
        mapping = AcceleratorMapping(accelerator="acc", instance_name="acc-i")
        mapping.options.append(
            _option("two", [1, 2],
                    {1: {"A": _image(1, "A", 2)}, 2: {"A": _image(2, "A", 2)}},
                    cut_bits=64)
        )
        mapping.options.append(
            _option("one", [1], {1: {"A": _image(1, "A", 4)}})
        )
        return mapping

    def test_sorted_options_fewest_clusters_first(self):
        options = self._mapping().sorted_options()
        assert [o.option_id for o in options] == ["one", "two"]

    def test_undeployable_options_excluded(self):
        mapping = self._mapping()
        mapping.options.append(_option("broken", [9], {9: {}}))
        assert all(o.option_id != "broken" for o in mapping.sorted_options())


class TestRenderTree:
    def _tree(self):
        leaves = [
            leaf_block(f"l{i}", resources=ResourceVector(luts=1.0))
            for i in range(3)
        ]
        return data_block("root", leaves)

    def test_contains_all_nodes(self):
        text = render_tree(self._tree())
        for name in ("root", "l0", "l1", "l2"):
            assert name in text

    def test_max_depth_truncates(self):
        text = render_tree(self._tree(), max_depth=1)
        assert "l0" not in text
        assert "hidden" in text

    def test_renders_pattern_labels(self):
        assert "data-parallel x3" in render_tree(self._tree())


class TestRenderPartition:
    def test_shows_blocks_and_cuts(self, mini_partition):
        text = render_partition(mini_partition)
        assert "block #1" in text
        assert "cut" in text
