"""Fixture: a contract gap that must raise EXP002."""


class BrokenExperiment:  # EXP002: missing config, cells, assemble
    name = "broken"

    def describe(self) -> str:
        return "not actually runnable"
