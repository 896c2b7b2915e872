"""Registry wiring: one violation each for SA012, SA013 and SA015.

Four codecs are registered.  ``goodcodec`` is fully wired (spec entries,
contract entry, complete ``Codec(...)`` metadata) and must stay quiet.
The other three each miss exactly one thing.
"""

from sa_project.base import Codec, register_codec
from sa_project.codecs import GoodDecoder, GoodEncoder


@register_codec("goodcodec")
def build_goodcodec(width):
    return Codec(
        name="goodcodec", encoder_cls=GoodEncoder, decoder_cls=GoodDecoder
    )


@register_codec("badcodec")
def build_badcodec(width):
    # The one SA015 violation: no encoder_cls=, so cache code-versioning
    # cannot see this codec's source.
    return Codec(name="badcodec")


@register_codec("nospec")
def build_nospec(width):
    return Codec(
        name="nospec", encoder_cls=GoodEncoder, decoder_cls=GoodDecoder
    )


@register_codec("nocontract")
def build_nocontract(width):
    return Codec(
        name="nocontract", encoder_cls=GoodEncoder, decoder_cls=GoodDecoder
    )
