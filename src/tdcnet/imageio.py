"""Binary PPM (P6) / PGM (P5) reading and writing, maxval 255.

PNG is supported opportunistically through Pillow when it is installed.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import ConfigurationError


def _read_int(f, path) -> int:
    """Next whitespace-separated header field, skipping comments, as an int."""
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ConfigurationError(f"{path}: truncated PNM header")
        if ch in b" \t\r\n":
            if tok:
                break
            continue
        if ch == b"#":
            while f.read(1) not in (b"\n", b""):
                pass
            continue
        tok += ch
    if not tok.isdigit():
        raise ConfigurationError(f"{path}: PNM header field {tok!r} is not an integer")
    return int(tok)


def read_image(path) -> np.ndarray:
    """8-bit image as (H, W) grayscale or (H, W, 3) RGB."""
    path = os.fspath(path)
    if path.lower().endswith(".png"):
        return _read_png(path)
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise ConfigurationError(f"{path}: not a binary PGM/PPM file")
        w, h, maxval = (_read_int(f, path) for _ in range(3))
        if maxval != 255:
            raise ConfigurationError(f"{path}: only maxval 255 is supported")
        channels = 1 if magic == b"P5" else 3
        # check the header against the file size before allocating for it
        if w * h * channels > os.fstat(f.fileno()).st_size - f.tell():
            raise ConfigurationError(f"{path}: truncated pixel data")
        data = f.read(w * h * channels)
    arr = np.frombuffer(data, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(h, w)
    return arr.reshape(h, w, 3)


def write_image(path, image: np.ndarray):
    """Write (H, W) as PGM, (H, W, 3) as PPM; .png via Pillow when available."""
    path = os.fspath(path)
    img = np.asarray(image)
    if img.dtype != np.uint8:
        raise ConfigurationError(f"expected uint8 image, got {img.dtype}")
    if path.lower().endswith(".png"):
        _write_png(path, img)
        return
    if img.ndim == 2:
        magic, h, w = b"P5", *img.shape
    elif img.ndim == 3 and img.shape[2] == 3:
        magic = b"P6"
        h, w = img.shape[:2]
    else:
        raise ConfigurationError(f"unsupported image shape {img.shape}")
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(img.tobytes())


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as e:
        raise ConfigurationError("PNG support requires Pillow") from e
    with Image.open(path) as im:
        if im.mode == "L":
            return np.asarray(im, dtype=np.uint8)
        return np.asarray(im.convert("RGB"), dtype=np.uint8)


def _write_png(path, img: np.ndarray):
    try:
        from PIL import Image
    except ImportError as e:
        raise ConfigurationError("PNG support requires Pillow") from e
    Image.fromarray(img).save(path)
