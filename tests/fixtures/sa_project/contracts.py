"""Contracts table: every registered codec except ``nocontract`` (SA013)."""

CODEC_CONTRACTS = {
    "goodcodec": "no redundant lines; identity mapping",
    "badcodec": "no redundant lines; identity mapping",
    "nospec": "no redundant lines; identity mapping",
}
