"""Array-native path extraction vs the per-path reference extractor.

``repro.core.features`` samples paths and computes the Table 2 path features
on a :class:`~repro.core.path_index.PathIndex`; ``tests/path_oracle.py`` keeps
the per-endpoint, per-path implementation it replaced.  The contract is byte
identity of the whole :class:`~repro.core.features.PathDataset`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.bitwise import BitwiseConfig
from repro.core.dataset import build_dataset, build_design_record
from repro.core.feature_cache import feature_code_paths
from repro.core.features import PATH_FEATURE_NAMES, _extract_path_dataset
from repro.core.path_index import PathIndex
from repro.core.sampling import SamplingConfig
from repro.hdl.generate import BENCHMARK_SPECS
from repro.sta.network import VertexKind
from tests import path_oracle

VARIANTS = ("sog", "aig", "aimg", "xag")

#: Training endpoint budget for the subset setting (the fast benchmark preset).
TRAIN_LIMIT = 80

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The extraction modules; everything they import must be in the feature key.
EXTRACTOR_MODULES = ("core/features.py", "core/sampling.py", "core/path_index.py")

EDGE_VERILOG = """
module edge_cases (clk, a, b, q, z, y);
  input clk;
  input [3:0] a;
  input [3:0] b;
  output [3:0] q;
  output z;
  output [3:0] y;
  reg [3:0] direct;
  reg [3:0] hold;
  reg zero;
  reg [3:0] acc;
  assign q = direct;
  assign z = zero;
  assign y = acc;
  always @(posedge clk) begin
    direct <= a;
    hold <= direct;
    zero <= 1'b0;
    acc <= (acc + b) ^ hold;
  end
endmodule
"""

#: Two always blocks assign ``r``, so its bit endpoints appear twice.
DUPLICATE_VERILOG = """
module dup (clk, a, b, y);
  input clk;
  input [3:0] a;
  input [3:0] b;
  output [3:0] y;
  reg [3:0] r;
  reg [3:0] s;
  assign y = r ^ s;
  always @(posedge clk) begin
    r <= a & b;
    s <= r + a;
  end
  always @(posedge clk) begin
    r <= (s | b) + a;
  end
endmodule
"""

COMBINATIONAL_VERILOG = """
module comb (a, b, y);
  input [3:0] a;
  input [3:0] b;
  output [3:0] y;
  assign y = (a & b) ^ a;
endmodule
"""


def assert_identical(fast, reference):
    assert fast.design == reference.design and fast.variant == reference.variant
    assert fast.features.shape == reference.features.shape
    assert fast.features.dtype == reference.features.dtype
    assert fast.features.tobytes() == reference.features.tobytes()
    assert fast.groups.dtype == reference.groups.dtype
    assert fast.groups.tobytes() == reference.groups.tobytes()
    assert len(fast.tokens) == len(reference.tokens)
    for ours, theirs in zip(fast.tokens, reference.tokens):
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
        assert ours.tobytes() == theirs.tobytes()
    assert fast.endpoint_names == reference.endpoint_names
    assert fast.endpoint_signals == reference.endpoint_signals
    assert fast.endpoint_designs == reference.endpoint_designs
    assert fast.endpoint_labels.tobytes() == reference.endpoint_labels.tobytes()


def training_subset(record, limit=TRAIN_LIMIT, seed=BitwiseConfig().seed):
    """The endpoint subset ``BitwiseArrivalModel`` trains on (or None)."""
    if len(record.endpoint_names) <= limit:
        return None
    rng = np.random.default_rng(seed + len(record.name))
    return list(rng.choice(record.endpoint_names, size=limit, replace=False))


def settings(record):
    sampled = BitwiseConfig().sampling()
    return (
        ("sampled", sampled, None),
        ("no_sampling", SamplingConfig(use_sampling=False), None),
        ("train_subset", sampled, training_subset(record)),
    )


@pytest.fixture(scope="module")
def suite_records():
    return build_dataset(BENCHMARK_SPECS)


@pytest.fixture(scope="module")
def edge_record():
    return build_design_record(EDGE_VERILOG, name="edge_cases")


@pytest.mark.parametrize("design", [spec.name for spec in BENCHMARK_SPECS])
def test_suite_extraction_is_byte_identical(suite_records, design):
    record = next(r for r in suite_records if r.name == design)
    for variant in VARIANTS:
        for _, sampling, names in settings(record):
            fast = _extract_path_dataset(record, variant, sampling, names)
            reference = path_oracle.extract_path_dataset(record, variant, sampling, names)
            assert_identical(fast, reference)


def test_training_subset_setting_is_exercised(suite_records):
    subsets = [training_subset(record) for record in suite_records]
    assert any(subset is not None for subset in subsets)


@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_cases_are_byte_identical(edge_record, variant):
    network = edge_record.pseudo_networks[variant]
    drivers = {e.name: network.vertices[e.driver].kind for e in network.endpoints}
    assert drivers["direct[0]"] is VertexKind.INPUT  # a path of length 1
    assert drivers["zero[0]"] is VertexKind.CONST
    for sampling in (SamplingConfig(), SamplingConfig(use_sampling=False)):
        fast = _extract_path_dataset(edge_record, variant, sampling, None)
        assert_identical(fast, path_oracle.extract_path_dataset(edge_record, variant, sampling, None))
        lengths = [len(tokens) for tokens in fast.tokens]
        assert 1 in lengths


def test_unknown_endpoint_names_are_skipped(edge_record):
    names = ["nope[0]", "acc[1]", "direct[0]", "missing", "zero[0]", "acc[1]"]
    for variant in VARIANTS:
        fast = _extract_path_dataset(edge_record, variant, SamplingConfig(), names)
        reference = path_oracle.extract_path_dataset(edge_record, variant, SamplingConfig(), names)
        assert_identical(fast, reference)
        assert "nope[0]" not in fast.endpoint_names and "missing" not in fast.endpoint_names


def test_duplicate_register_endpoints():
    record = build_design_record(DUPLICATE_VERILOG, name="dup")
    names = [e.name for e in record.pseudo_networks["sog"].endpoints if e.kind == "register"]
    assert names.count("r[0]") == 2
    for variant in VARIANTS:
        for sampling in (SamplingConfig(), SamplingConfig(use_sampling=False)):
            fast = _extract_path_dataset(record, variant, sampling, None)
            assert_identical(fast, path_oracle.extract_path_dataset(record, variant, sampling, None))


def test_design_without_register_endpoints():
    record = build_design_record(COMBINATIONAL_VERILOG, name="comb")
    for variant in VARIANTS:
        fast = _extract_path_dataset(record, variant, SamplingConfig(), None)
        assert fast.features.shape == (0, len(PATH_FEATURE_NAMES)) == (0, 22)
        assert fast.tokens == [] and fast.n_endpoints == 0
        assert_identical(fast, path_oracle.extract_path_dataset(record, variant, SamplingConfig(), None))


def test_index_launch_counts_match_cone_dfs(suite_records):
    record = next(r for r in suite_records if r.name == "Rocket3")
    network = record.pseudo_networks["sog"]
    index = PathIndex(network, record.pseudo_reports["sog"])
    for endpoint in network.endpoints:
        expected = len(path_oracle.driving_launch_points(network, endpoint.driver))
        assert index.launch_count[endpoint.driver] == expected


def _repro_imports(path: Path):
    """``src/repro`` files named by the import statements of one module."""
    files = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        for module in modules:
            if not module.startswith("repro."):
                continue
            base = SRC_REPRO.parent.joinpath(*module.split("."))
            for candidate in (base.with_suffix(".py"), base / "__init__.py"):
                if candidate.exists():
                    files.add(candidate)
    return files


def test_feature_key_covers_every_file_the_extractor_imports():
    covered = {path.resolve() for path in feature_code_paths()}
    extractor = [SRC_REPRO / module for module in EXTRACTOR_MODULES]
    needed = set(extractor)
    for module in extractor:
        needed |= _repro_imports(module)
    missing = sorted(str(path.relative_to(SRC_REPRO)) for path in needed if path.resolve() not in covered)
    assert not missing, f"feature cache key does not hash {missing}"
