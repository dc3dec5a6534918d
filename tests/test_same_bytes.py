"""tools/same_bytes.py: the byte-identity check between two src trees."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "same_bytes", ROOT / "tools" / "same_bytes.py")
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)

#: Two quick runs; idea1's report row and summary line pass through _fmt.
_CASES = [("tiny: %s" % cmd, "grid.nx = 8\ngrid.ny = 8\n", [cmd])
          for cmd in ("dump-generator", "idea1")]


def test_matrix_covers_every_subcommand_at_three_seeds():
    cases = same_bytes.matrix()
    assert {argv[0] for _, _, argv in cases} == set(same_bytes.COMMANDS)
    assert {argv[-1] for _, _, argv in cases} == {"0", "1", "2"}
    assert len({label for label, _, _ in cases}) == len(cases)


def test_same_bytes_finds_no_difference_and_an_altered_number_format(
        tmp_path, capsys):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    compared, differ = same_bytes.compare_trees(copy, ROOT / "src", _CASES)
    # exit code, stdout, stderr, and one CSV or three
    assert (compared, differ) == (3 + 1 + 3 + 3, 0)
    assert capsys.readouterr().out == ""

    cli = copy / "chi_exit" / "cli.py"
    text = cli.read_text()
    assert text.count("return repr(float(value))") == 1
    cli.write_text(text.replace("return repr(float(value))",
                                'return "%.6g" % value'))
    compared, differ = same_bytes.compare_trees(copy, ROOT / "src", _CASES)
    lines = capsys.readouterr().out.split("\ntiny: ")
    # _fmt writes the config hash on every CSV's first row, and idea1's
    # summary line
    assert (compared, differ) == (10, 5)
    assert sorted(line.split(" (")[0].removeprefix("tiny: ")
                  for line in lines) == [
        "dump-generator: generator.csv", "idea1: chi.csv", "idea1: eigen.csv",
        "idea1: report.csv", "idea1: stdout"]
    assert all(" line 1:\n  base   # config=" in line
               for line in lines if ".csv (" in line)
    assert any(" line 1:\n  base   idea1: eps_bar=" in line for line in lines)
    # a CSV's numbers moved by the format's six significant digits, or only
    # its config hash did
    notes = {line.split(" (")[0].removeprefix("tiny: "):
             line.strip().split("\n  ")[3:]
             for line in lines if ".csv (" in line}
    assert [name for name, note in notes.items()
            if note == ["no numeric field differs"]] == [
        "dump-generator: generator.csv", "idea1: chi.csv"]
    for name in ("idea1: eigen.csv", "idea1: report.csv"):
        rel, absolute = notes[name]
        assert rel.startswith("largest relative difference ")
        assert absolute.startswith("largest absolute difference ")
        assert 0 < float(rel.split()[3]) < 1e-5, (name, rel)


def test_largest_differences_read_numeric_fields_only():
    base = (b"# config=aaa seed=0\n# eigenvalue,1,2.0\ncell,x1,note\n"
            b"0,0.5,\"a, b\"\n1,1e-3,c\n2,7,d\n")
    change = (b"# config=bbb seed=0\n# eigenvalue,1,2.01\ncell,x1,note\n"
              b"0,0.50,\"a, c\"\n1,1.1e-3,c\n2,7,d,extra\n")
    # "0.5" and "0.50" read alike; the hash and the notes are text; the
    # last line's field counts differ
    rel, absolute = same_bytes.largest_differences(base, change)
    assert rel == ((1.1e-3 - 1e-3) / 1.1e-3, 5, "1e-3", "1.1e-3")
    assert absolute == (2.01 - 2.0, 2, "2.0", "2.01")
    assert same_bytes.largest_differences(
        b"x,nan\n1,0\n", b"x,inf\n1,0\n") == (None, None)
    assert same_bytes.largest_differences(b"a\n0.0\n", b"a\n-0.0\n") == (
        (0.0, 2, "0.0", "-0.0"), (0.0, 2, "0.0", "-0.0"))
    assert same_bytes.largest_differences(base, base) == (None, None)
