"""Purity violations: one each for SA003 and SA004."""

from sa_project.base import BusDecoder, BusEncoder


class SharedHistoryEncoder(BusEncoder):
    """SA003: a mutable class attribute shared across instances."""

    history = []  # the one SA003 violation

    def encode(self, address, sel):
        return address


class StickyDefaultsEncoder(BusEncoder):
    """SA004: a mutable default argument smuggling state across calls."""

    def encode(self, address, sel, seen={}):  # the one SA004 violation
        seen[address] = sel
        return address


class GoodEncoder(BusEncoder):
    """A fully clean codec class: no rule may fire here."""

    def __init__(self, width):
        self.width = width
        self.previous = 0

    def encode(self, address, sel):
        self.previous = address  # encode may write its own registers
        return address


class GoodDecoder(BusDecoder):
    """Clean decoder counterpart."""

    def decode(self, word, sel):
        return word
