import importlib.util
from pathlib import Path

import vbdiffusion

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_diff_ignores_only_wall_time_and_output_dir(tmp_path):
    results = "eps,mse,eig_err,wall_time_s\n0.5,0.25,0,{}\n"
    meta = "experiment = x\noutput_dir = {}\nN = 10\n"
    a = _tree(tmp_path / "a", {"x/results.csv": results.format(1.5),
                               "x/meta.txt": meta.format("a/x"),
                               "x/operator_0.5.csv": "1,2\n"})
    b = _tree(tmp_path / "b", {"x/results.csv": results.format(2.5),
                               "x/meta.txt": meta.format("b/x"),
                               "x/operator_0.5.csv": "1,2\n"})
    assert compare_outputs.diff(a, b) == []
    assert compare_outputs.main(["diff", str(a), str(b)]) == 0
    # any other change, and a file on one side only, is reported
    (b / "x" / "results.csv").write_text(
        results.format(2.5).replace("0.25", "0.26"))
    (b / "x" / "meta.txt").write_text(meta.format("b/x").replace("10", "11"))
    (b / "x" / "operator_0.5.csv").write_text("1,3\n")
    (a / "x" / "eigvecs_0.5.csv").write_text("")
    assert compare_outputs.diff(a, b) == [
        "x/eigvecs_0.5.csv", "x/meta.txt", "x/operator_0.5.csv",
        "x/results.csv"]
    assert compare_outputs.main(["diff", str(a), str(b)]) == 1


def test_runs_of_one_source_tree_do_not_differ(tmp_path):
    src = Path(vbdiffusion.__file__).resolve().parents[1]
    for tag in ("a", "b"):
        compare_outputs.run(src, tmp_path / tag, ["circle_grid_operator"])
    files = sorted(p.name for p in (tmp_path / "a" / "circle_grid_operator")
                   .iterdir())
    assert files == ["meta.txt", "operator_0.001.csv", "operator_0.01.csv",
                     "operator_0.1.csv", "results.csv"]
    assert compare_outputs.diff(tmp_path / "a", tmp_path / "b") == []
