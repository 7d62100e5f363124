"""Shared pytest wiring: replay summary lines after the run."""

# section title -> lines, printed in the order first recorded
SUMMARY = {}


def record(section: str, line: str) -> None:
    SUMMARY.setdefault(section, []).append(line)


def pytest_terminal_summary(terminalreporter):
    for section, lines in SUMMARY.items():
        terminalreporter.section(section)
        for line in lines:
            terminalreporter.write_line(line)
