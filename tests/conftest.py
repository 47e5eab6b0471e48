import pytest

from scmalink import data_path, read_codebook


@pytest.fixture(scope="session")
def huawei_codebook():
    return read_codebook(data_path("huawei_4x6.json"))
