"""The frozen solver inputs and the HiGHS bindings loader.

``ProgramSnapshot.from_rows`` builds its CSC arrays with numpy alone;
the layout must be exactly the one ``scipy.sparse`` builds from the
same rows, which is what HiGHS was handed before.  The bindings are
loaded by file path, with no fallback import, and no module of the
package imports scipy.
"""

import ast
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.solve.backend import ProgramSnapshot, _highs_core


@st.composite
def constraint_systems(draw):
    """Rows over ``n`` variables; some columns appear in no row."""
    n = draw(st.integers(1, 12))
    weights = st.sampled_from([-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 100.0])
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), weights, min_size=1),
        min_size=1, max_size=10))
    return n, rows


def _snapshot(n, rows):
    return ProgramSnapshot.from_rows(
        "p", [0.0] * n, [np.inf] * n, rows, [-np.inf] * len(rows),
        [0.0] * len(rows))


def _assert_matches_scipy(snapshot, n, rows):
    from scipy import sparse

    entries = [(row, col, value) for row, coefficients in enumerate(rows)
               for col, value in coefficients.items()]
    row_idx, col_idx, data = (list(column) for column in zip(*entries))
    expected = sparse.csc_matrix((data, (row_idx, col_idx)),
                                 shape=(len(rows), n))
    assert snapshot.matrix_indptr.dtype == np.int64
    assert snapshot.matrix_indices.dtype == np.int64
    assert snapshot.matrix_data.dtype == np.float64
    np.testing.assert_array_equal(snapshot.matrix_indptr, expected.indptr)
    np.testing.assert_array_equal(snapshot.matrix_indices,
                                  expected.indices)
    np.testing.assert_array_equal(snapshot.matrix_data, expected.data)


class TestSnapshotMatrix:
    @given(constraint_systems())
    def test_csc_arrays_equal_scipy_sparse(self, system):
        n, rows = system
        _assert_matches_scipy(_snapshot(n, rows), n, rows)

    def test_variables_in_no_row_are_empty_columns(self):
        rows = [{1: 1.0, 4: -2.0}, {4: 3.0}]
        snapshot = _snapshot(6, rows)
        assert snapshot.matrix_indptr.tolist() == [0, 0, 1, 1, 1, 3, 3]
        assert snapshot.matrix_indices.tolist() == [0, 0, 1]
        assert snapshot.matrix_data.tolist() == [1.0, -2.0, 3.0]
        _assert_matches_scipy(snapshot, 6, rows)

    def test_single_row_program(self):
        rows = [{2: 1.0, 0: 5.0}]
        snapshot = _snapshot(3, rows)
        assert snapshot.num_constraints == 1
        assert snapshot.matrix_indptr.tolist() == [0, 1, 1, 2]
        assert snapshot.matrix_data.tolist() == [5.0, 1.0]
        _assert_matches_scipy(snapshot, 3, rows)


class TestHighsLoader:
    def test_missing_extension_names_the_directory(self, tmp_path):
        with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
            _highs_core(tmp_path)

    def test_default_load_is_the_scipy_bindings(self):
        core = _highs_core()
        assert core.__name__ == "scipy.optimize._highspy._core"
        assert core is _highs_core()
        assert hasattr(core, "_Highs")

    def test_no_module_imports_scipy(self):
        """HiGHS is reached only through ``_highs_core``'s load by file
        path; no ``import scipy…`` or ``from scipy… import`` anywhere."""
        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(root.parent)}:{node.lineno}"
                    for module in modules
                    if module == "scipy" or module.startswith("scipy.")]
        assert not offenders, offenders
