# The model fingerprint: SHA-256 over the sorted lines
# "<path relative to the repository> <SHA-256 of the file>", one per
# file under src/.  Every cell key and cache entry carries it, so any
# library edit (comments included) misses the result cache.
#
#   cmake -DLTP_ROOT=<repository> -DOUT=<header> -P model_fingerprint.cmake
#
# Writes `#define LTP_MODEL_FINGERPRINT "<hex>"` to OUT, and rewrites
# OUT only when the value changes, so an unchanged tree rebuilds
# nothing.
cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE files RELATIVE "${LTP_ROOT}" "${LTP_ROOT}/src/*")
list(SORT files)
set(manifest "")
foreach(f IN LISTS files)
  file(SHA256 "${LTP_ROOT}/${f}" digest)
  string(APPEND manifest "${f} ${digest}\n")
endforeach()
string(SHA256 fingerprint "${manifest}")

set(text "#define LTP_MODEL_FINGERPRINT \"${fingerprint}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUT}" "${text}")
endif()
