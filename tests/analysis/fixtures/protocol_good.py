"""Fixture: an experiment that satisfies the protocol contract."""


class GoodConfig:
    pass


class GoodExperiment:
    name = "good"

    def __init__(self, config=None):
        self.config = config if config is not None else GoodConfig()

    def describe(self) -> str:
        return "a conforming experiment"

    def cells(self, seeds=None):
        return []

    def assemble(self, view):
        return view
