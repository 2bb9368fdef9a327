import functools

import numpy as np
import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance battery lines after capture ends, so a plain
    ``pytest -v`` run still shows one pass/fail line per criterion."""
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.write_sep("-", "acceptance battery")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def svd_dtypes(monkeypatch):
    """The dtype of every array passed to ``np.linalg.svd`` in the test."""
    dtypes = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return dtypes


def kron(*factors) -> np.ndarray:
    """The Kronecker product of the factors by nested ``np.kron``, first
    factor slowest: a dense reference that does not run ``tensor_sum``."""
    return functools.reduce(np.kron, factors)


def kronecker_sum_dense(factors) -> np.ndarray:
    """sum_k I x .. x f_k x .. x I, each term a ``kron`` product."""
    eyes = [np.eye(f.shape[0]) for f in factors]
    return sum(kron(*(f if j == k else eyes[j] for j in range(len(eyes)))) for k, f in enumerate(factors))
