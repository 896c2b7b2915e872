"""Registry wiring: one violation each for SA012, SA013 and SA015.

Four codecs are registered.  ``goodcodec`` is fully wired (spec entries,
contract entry, a ``Codec(...)`` named as registered) and must stay quiet.
The other three each miss exactly one thing.
"""

from sa_project.base import Codec, register_codec
from sa_project.codecs import GoodDecoder, GoodEncoder


@register_codec("goodcodec", GoodEncoder)
def build_goodcodec(width):
    return Codec(name="goodcodec", decoder_cls=GoodDecoder)


@register_codec("badcodec", GoodEncoder)
def build_badcodec(width):
    # The one SA015 violation: the codec is built under another name, so
    # its cache keys and reports would name the wrong codec.
    return Codec(name="goodcodec", decoder_cls=GoodDecoder)


@register_codec("nospec", GoodEncoder)
def build_nospec(width):
    return Codec(name="nospec", decoder_cls=GoodDecoder)


@register_codec("nocontract", GoodEncoder)
def build_nocontract(width):
    return Codec(name="nocontract", decoder_cls=GoodDecoder)
