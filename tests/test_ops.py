"""Tests for graph ops — degrees/symmetrize verified against DuckDB."""
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs import ops
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small_graph(spark):
    pdf = gen.generate_edges(gen.GraphSpec(n=200, avg_degree=8, seed=21))
    return pdf, gen.to_spark(spark, pdf)


def test_symmetrize_doubles_rows(small_graph):
    pdf, sdf = small_graph
    assert ops.symmetrize(sdf).count() == 2 * len(pdf)


def test_symmetrize_against_duckdb(small_graph):
    pdf, sdf = small_graph
    assert_equivalent(
        ops.symmetrize(sdf),
        "SELECT src, dst FROM edges UNION ALL SELECT dst AS src, src AS dst FROM edges",
        edges=pdf,
    )


def test_degrees_against_duckdb(small_graph):
    pdf, sdf = small_graph
    assert_equivalent(
        ops.degrees(sdf),
        """
        SELECT id, count(*) AS degree FROM (
          SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges
        ) GROUP BY id
        """,
        edges=pdf,
    )


def test_degree_sum_is_2m(small_graph):
    pdf, sdf = small_graph
    total = ops.degrees(sdf).groupBy().sum("degree").collect()[0][0]
    assert total == 2 * len(pdf)


def test_vertex_table_dims(small_graph):
    _, sdf = small_graph
    vt = ops.vertex_table(sdf, dims=("unit", "degree", "sqrt_degree", "degree_sq"))
    row = vt.orderBy("id").limit(1).collect()[0]
    assert row["w_0"] == 1.0
    assert row["w_1"] == float(row["degree"])
    assert row["w_2"] == pytest.approx(row["degree"] ** 0.5)
    assert row["w_3"] == pytest.approx(row["degree"] ** 2)


def test_vertex_table_covers_all_vertices(small_graph):
    _, sdf = small_graph
    assert ops.vertex_table(sdf).count() == 200


def test_vertex_table_unknown_dim(small_graph):
    _, sdf = small_graph
    with pytest.raises(ValueError, match="unknown weight dimension"):
        ops.vertex_table(sdf, dims=("unit", "pagerank"))


def test_validate_canonical_rejects_bad():
    with pytest.raises(ValueError, match="src < dst"):
        ops.validate_canonical(pd.DataFrame({"src": [2], "dst": [1]}))
    with pytest.raises(ValueError, match="duplicate edges"):
        ops.validate_canonical(pd.DataFrame({"src": [1, 1], "dst": [2, 2]}))
