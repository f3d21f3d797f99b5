import os

# One BLAS thread: on a shared 2-CPU host the first LAPACK call of a process
# sometimes stalls for about a second with two.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ACCEPTANCE_LINES: list[str] = []
# data files that match their golden reference but not its recorded bytes
BYTE_MISMATCHES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
    if BYTE_MISMATCHES:
        terminalreporter.write_sep("-", "golden outputs not byte-identical")
        for line in sorted(BYTE_MISMATCHES):
            terminalreporter.write_line(line)
