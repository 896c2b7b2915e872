"""Clean stand-ins for the core framework the broken modules build on."""


class BusEncoder:
    def encode(self, address, sel):
        raise NotImplementedError


class BusDecoder:
    def decode(self, word, sel):
        raise NotImplementedError


class Codec:
    def __init__(self, name=None, encoder_cls=None, decoder_cls=None):
        self.name = name
        self.encoder_cls = encoder_cls
        self.decoder_cls = decoder_cls


def register_codec(name):
    def wrap(builder):
        return builder

    return wrap


class Cell:
    def __init__(self, codec_name=None, payload=None):
        self.codec_name = codec_name
        self.payload = payload


def make_cell(codec_name, payload):
    return Cell(codec_name=codec_name, payload=payload)


def roundtrip_stream(codec, addresses):
    return addresses


def verify_roundtrip(codec, addresses):
    return True
