"""io.read_parquet keeps every column Ray's own read would give, and still
strips pandas schema metadata at the source where it can."""

import pyarrow as pa
import pyarrow.parquet as pq


def _write_hive(root) -> None:
    t = pa.table(
        {"id": [1, 2, 3, 4], "content": ["a", "b", "c", "d"], "src": ["x", "y", "x", "y"]}
    )
    pq.write_to_dataset(t, str(root), partition_cols=["src"])


def test_hive_paths_fall_back_to_rays_own_schema(ray_session, tmp_path):
    from raydedup.io import _inject_stripped_schema, read_parquet

    _write_hive(tmp_path / "h")
    for paths in (str(tmp_path / "h"), str(tmp_path / "h" / "src=x")):
        assert not _inject_stripped_schema((paths,), {})
    ds = read_parquet(str(tmp_path / "h"))
    # the declared schema names the partition column too: with the file
    # schema injected, Ray still adds it to the rows but not to schema()
    assert sorted(ds.schema().names) == ["content", "id", "src"]
    rows = ds.to_pandas()
    assert sorted(zip(rows["id"], rows["src"])) == [(1, "x"), (2, "y"), (3, "x"), (4, "y")]


def test_partitioning_none_injects_the_file_schema(ray_session, tmp_path):
    from raydedup.io import _inject_stripped_schema, read_parquet

    _write_hive(tmp_path / "h")
    kw = {"partitioning": None}
    assert _inject_stripped_schema((str(tmp_path / "h"),), kw)
    assert kw["schema"].names == ["id", "content"] and kw["schema"].metadata is None
    ds = read_parquet(str(tmp_path / "h"), partitioning=None)
    assert ds.schema().names == ["id", "content"] and ds.count() == 4
