"""The committed output corpus: every CLI command rerun and compared.

tests/corpus holds the config texts (*.ini) and, in one directory per
case, the files that case's command wrote: its CSV tables, and for
`validate`, which writes none, its verdict lines (validate.txt).  The
cases cover every command on a two- and a three-qubit circuit (beta_c
0.75 and about 0.95, dimensionless and physical units), and spectrum
sweeps over exact, NA, LA and LN whose sectors hold at most the Lanczos
basis of 20 states (4x4, 3x3, 4,4,2, 3,3,3) or more (12x12, 8,8,6,
6,6,6, 4,4,4,4).  Two library-level cases hold what no CSV does, on the
stored two- and three-qubit configs: the exact, NA, LA and LN
eigenvalues at the two-qubit reference point, on grids whose sectors
hold at most the Lanczos basis (exact 4,4,2, NA/LA/LN 4x4) and more
(8,8,6, 12x12), and one ``couplings`` table per label family: every
two-qubit label, and every three-qubit label with its body count k.

A rerun must match each stored file:
- every `#` header line exactly, except `# config=<path>`, which names
  wherever the config was read from;
- the column names and the number of rows exactly;
- a text column (one with a cell that is not a number) exactly;
- a numeric column within 1e-12 of its largest stored magnitude, with
  NaN and infinities where the stored column has them.

validate's lines are compared up to each check's detail text (its
measured numbers are rounding-level), and its summary without the time.

Regenerate the corpus, after a change that is meant to move it, with

    PYTHONPATH=src python tests/test_corpus.py [case ...]

(every case when none is named).  For each rewritten file it prints
"unchanged", or the header lines that changed and the largest numeric
move as a share of its column's largest stored value, both measured
against the file it replaces.  Say in CHANGES.md which files moved and
why.
"""

import contextlib
import io
import itertools
import os
import sys
import shutil
from pathlib import Path

import numpy as np

CORPUS = Path(__file__).resolve().with_name("corpus")

# numeric cells may move by this share of their column's largest magnitude
TOLERANCE = 1e-12

# case: (config, command and its options)
CASES = {
    "two_qubits_series": ("two_qubits", "series --n-grid=9"),
    "two_qubits_eg": ("two_qubits", "eg --n-grid=5 --lo=0.1 --hi=0.4"),
    "two_qubits_derivs": ("two_qubits", "derivs --n-grid=5"),
    "two_qubits_couplings": ("two_qubits", "couplings --pc-basis"),
    "two_qubits_spectrum": ("two_qubits", "spectrum"),
    "two_qubits_scan": ("two_qubits", "scan"),
    "two_qubits_truncation": ("two_qubits", "truncation --epsilon=1e-3 --epsilon=1e-6"),
    "two_qubits_validate": ("two_qubits", "validate"),
    "two_qubits_small_spectrum": ("two_qubits_small", "spectrum"),
    "two_qubits_odd_spectrum": ("two_qubits_odd", "spectrum"),
    "three_qubits_series": ("three_qubits", "series --n-grid=9 --nu-max=120"),
    "three_qubits_eg": ("three_qubits", "eg --n-grid=5"),
    "three_qubits_derivs": ("three_qubits", "derivs --n-grid=5"),
    "three_qubits_couplings": ("three_qubits", "couplings --labels=xxx,zzI,IxI,zxz"),
    "three_qubits_spectrum": ("three_qubits", "spectrum"),
    "three_qubits_scan": ("three_qubits", "scan"),
    "three_qubits_truncation": ("three_qubits", "truncation --epsilon=1e-4"),
}


def library_spectra(config):
    """spectra.csv: the lowest six eigenvalues of each theory on a small and a
    larger grid, with the route that solved them."""
    from coupler_lab.bench import bo_spectrum, exact_spectrum

    system, nu_max = config.system, config.numerics["nu_max"]
    runs = [("exact", (4, 4, 2)), ("exact", (8, 8, 6))]
    runs += [(theory, dims) for theory in ("NA", "LA", "LN") for dims in ((4, 4), (12, 12))]
    rows, header = [], []
    for theory, dims in runs:
        if theory == "exact":
            spec = exact_spectrum(system, dims, 6)
        else:
            spec = bo_spectrum(theory, system, dims, 6, nu_max=nu_max)
        rows.append((theory, "x".join(map(str, dims)), spec.metadata["solver"], spec.eigenvalues))
        if theory == "NA":
            header.append(f"NA {rows[-1][1]}: nu_max={spec.metadata['nu_max']}"
                          f" mu_max={spec.metadata['mu_max']}")
    columns = {"theory": [r[0] for r in rows], "dims": [r[1] for r in rows],
               "solver": [r[2] for r in rows]}
    for m in range(6):
        columns[f"E{m}"] = np.array([r[3][m] for r in rows])
    return {"spectra.csv": (header, columns)}


def library_couplings(config):
    """couplings.csv: the NA table of every Pauli label, with its body count k."""
    from coupler_lab.coupler import b_coeffs
    from coupler_lab.projection import couplings, qubit_subspace

    system = config.system
    series = b_coeffs(system.beta_c, system.zeta_c, config.numerics["nu_max"])
    subs = [qubit_subspace(q, n_basis=config.numerics["n_basis"]) for q in system.qubits]
    table = couplings(series, subs, [q.alpha_j for q in system.qubits], system.phi_cx,
                      e_ltc=system.e_ltc)
    columns = {"label": list(table.labels), "k": [len(label) - label.count("I")
                                                  for label in table.labels],
               "value": np.array([table[label] for label in table.labels])}
    return {"couplings.csv": ([f"nu_max={series.nu_max} mu_max={series.mu_max}"], columns)}


# library case: (config, the function that gives its files as {name: (header, columns)})
LIBRARY = {
    "two_qubits_library_spectra": ("two_qubits", library_spectra),
    "two_qubits_library_couplings": ("two_qubits", library_couplings),
    "three_qubits_library_couplings": ("three_qubits", library_couplings),
}


def run_case(case: str, out: Path) -> None:
    """Run one case's command into the empty directory out."""
    from coupler_lab.cli import EXIT_OK, _write_csv, load_config, main

    if case in LIBRARY:
        config, build = LIBRARY[case]
        for name, (header, columns) in build(load_config(CORPUS / f"{config}.ini")).items():
            _write_csv(out / name, header, columns)
        return
    config, command = CASES[case]
    argv = command.split()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([argv[0], "--config", os.path.relpath(CORPUS / f"{config}.ini"),
                     "--out", str(out), *argv[1:]])
    assert code == EXIT_OK, f"{case}: exit {code}"
    if argv[0] == "validate":
        # "PASS name: detail" lines and "k/n checks passed in t s"
        lines = [line.split(":")[0] if ":" in line else line.split(" in ")[0]
                 for line in stdout.getvalue().splitlines()]
        (out / "validate.txt").write_text("\n".join(lines) + "\n")


def floats(cells):
    """The cells as floats, or None when one is not a number."""
    try:
        return np.array([float(cell) for cell in cells])
    except ValueError:
        return None


def header(lines):
    """The `#` lines of a CSV text's lines, but the one naming the config path."""
    return [line for line in lines if line.startswith("#") and not line.startswith("# config=")]


def rows(lines):
    """The column names and data rows of a CSV text's lines, as lists of cells."""
    return [line.split(",") for line in lines if not line.startswith("#")]


def compare(got: Path, want: Path) -> None:
    """Assert that the file got matches the stored file want (see the module docstring)."""
    where = f"{want.parent.name}/{want.name}"
    if want.suffix != ".csv":
        assert got.read_text() == want.read_text(), where
        return
    got_lines, want_lines = got.read_text().splitlines(), want.read_text().splitlines()
    assert header(got_lines) == header(want_lines), where
    got_rows, want_rows = rows(got_lines), rows(want_lines)
    assert got_rows[0] == want_rows[0], where
    assert [len(row) for row in got_rows] == [len(row) for row in want_rows], where
    for j, name in enumerate(want_rows[0]):
        got_cells = [row[j] for row in got_rows[1:]]
        want_cells = [row[j] for row in want_rows[1:]]
        stored = floats(want_cells)
        if stored is None:
            assert got_cells == want_cells, f"{where} column {name}"
            continue
        rerun = floats(got_cells)
        assert rerun is not None, f"{where} column {name}: {got_cells}"
        finite = np.isfinite(stored)
        assert np.array_equal(rerun[~finite], stored[~finite], equal_nan=True), \
            f"{where} column {name}"
        scale = float(np.max(np.abs(stored[finite]), initial=0.0))
        worst = float(np.max(np.abs(rerun[finite] - stored[finite]), initial=0.0))
        assert np.all(np.isfinite(rerun[finite])) and worst <= TOLERANCE * scale, \
            f"{where} column {name}: moved {worst:.3e} against {TOLERANCE * scale:.3e}"


def check_cases(cases, tmp_path):
    for case in cases:
        out = tmp_path / case
        out.mkdir()
        run_case(case, out)
        want = sorted(path.name for path in (CORPUS / case).iterdir())
        assert sorted(path.name for path in out.iterdir()) == want, case
        for name in want:
            compare(out / name, CORPUS / case / name)


def test_corpus_reruns_match(tmp_path):
    stored = sorted(path.name for path in CORPUS.iterdir() if path.is_dir())
    assert stored == sorted([*CASES, *LIBRARY])
    check_cases(CASES, tmp_path)


def test_library_entries_match(tmp_path):
    check_cases(LIBRARY, tmp_path)


def test_compare_catches_one_moved_cell(tmp_path):
    # a numeric cell moved by twice the tolerance, or a text cell changed,
    # fails the comparison
    want = tmp_path / "want.csv"
    want.write_text("# coupler-lab\n# config=a.ini\nx,name\n1.5,a\n-3,b\n")
    got = tmp_path / "got.csv"
    cases = [
        ("# coupler-lab\n# config=elsewhere.ini\nx,name\n1.5,a\n-3,b\n", True),
        ("# coupler-lab\n# config=a.ini\nx,name\n1.5,a\n-3.000000000002,b\n", True),
        ("# coupler-lab\n# config=a.ini\nx,name\n1.5,a\n-3.000000000006,b\n", False),
        ("# coupler-lab\n# config=a.ini\nx,name\n1.5,a\n-3,c\n", False),
        ("# coupler-lab 2\n# config=a.ini\nx,name\n1.5,a\n-3,b\n", False),
        ("# coupler-lab\n# config=a.ini\nx,name\n1.5,a\n", False),
        ("# coupler-lab\n# config=a.ini\nx,name\nnan,a\n-3,b\n", False),
    ]
    for text, passes in cases:
        got.write_text(text)
        try:
            compare(got, want)
        except AssertionError:
            assert not passes, text
        else:
            assert passes, text


def test_moves_reports_headers_and_the_largest_share(tmp_path):
    old = "# coupler-lab\n# config=a.ini\n# residue=1e-18\nx,y,name\n2,10,a\n-4,1,b\n"
    new = tmp_path / "new.csv"
    new.write_text(old.replace("config=a.ini", "config=b.ini"))
    assert moves(new, old) == "unchanged"
    assert moves(new, None) == "new file"
    new.write_text(old.replace("1e-18", "5e-19").replace("-4,1", "-4.000000000004,1.00000000005"))
    assert moves(new, old) == ("header '# residue=1e-18' -> '# residue=5e-19';"
                               " largest numeric move 5e-12 of its column's largest value"
                               " (column y)")


def moves(new: Path, old: str | None) -> str:
    """How the rewritten file new differs from the text old it replaced."""
    if old is None:
        return "new file"
    new_lines, old_lines = new.read_text().splitlines(), old.splitlines()
    if new.suffix != ".csv":
        return "unchanged" if new_lines == old_lines else "changed"
    if header(new_lines) == header(old_lines) and rows(new_lines) == rows(old_lines):
        return "unchanged"
    notes = [f"header {a!r} -> {b!r}"
             for a, b in itertools.zip_longest(header(old_lines), header(new_lines)) if a != b]
    new_rows, old_rows = rows(new_lines), rows(old_lines)
    if new_rows[0] != old_rows[0] or len(new_rows) != len(old_rows):
        return "; ".join(notes + ["columns or rows changed"])
    share, column = 0.0, None
    for j, name in enumerate(old_rows[0]):
        stored, rerun = (floats([row[j] for row in r[1:]]) for r in (old_rows, new_rows))
        if stored is None or rerun is None:
            if [row[j] for row in old_rows] != [row[j] for row in new_rows]:
                notes.append(f"text column {name} changed")
            continue
        finite = np.isfinite(stored) & np.isfinite(rerun)
        scale = float(np.max(np.abs(stored[finite]), initial=0.0))
        worst = float(np.max(np.abs(rerun[finite] - stored[finite]), initial=0.0))
        if scale > 0.0 and worst / scale >= share:
            share, column = worst / scale, name
    notes.append(f"largest numeric move {share:.3g} of its column's largest value"
                 f" (column {column})")
    return "; ".join(notes)


def regenerate(cases) -> None:
    """Rewrite the named case directories of the corpus from the current code."""
    for case in cases:
        out = CORPUS / case
        old = {path.name: path.read_text() for path in out.iterdir()} if out.is_dir() else {}
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        run_case(case, out)
        for path in sorted(out.iterdir()):
            print(f"{case}/{path.name}: {moves(path, old.get(path.name))}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or [*CASES, *LIBRARY])
