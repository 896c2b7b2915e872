"""Formal specs table: every registered codec except ``nospec`` (SA012)."""


def _spec(width):
    return None


SPEC_BUILDERS = {
    ("goodcodec", "encoder"): _spec,
    ("goodcodec", "decoder"): _spec,
    ("badcodec", "encoder"): _spec,
    ("badcodec", "decoder"): _spec,
    ("nocontract", "encoder"): _spec,
    ("nocontract", "decoder"): _spec,
}
