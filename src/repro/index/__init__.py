"""Index substrates: tokenizer, Dewey lists, JDewey columns, storage."""

from .tokenizer import Tokenizer, DEFAULT_STOPWORDS
from .inverted import InvertedIndex, Posting, PostingList
from .columnar import Column, ColumnarIndex, ColumnarPostings, RowPostings
from .scored import ScoredPostings
from .sparse import SparseColumnIndex
from .lazydisk import IOStats, LazyColumnarIndex, LazyColumnarPostings
from . import compression, storage

__all__ = [
    "Tokenizer",
    "DEFAULT_STOPWORDS",
    "InvertedIndex",
    "Posting",
    "PostingList",
    "Column",
    "ColumnarIndex",
    "ColumnarPostings",
    "RowPostings",
    "ScoredPostings",
    "SparseColumnIndex",
    "IOStats",
    "LazyColumnarIndex",
    "LazyColumnarPostings",
    "compression",
    "storage",
]
