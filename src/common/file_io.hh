/**
 * @file
 * The one file layer: the sealed container both binary formats share
 * (`.lttr` traces, `.ltcp` checkpoints), and the whole-file reader and
 * atomic writer every file the program reads or writes goes through.
 *
 * Sealed container layout (all integers little-endian):
 *
 *   magic     8 bytes, names the format
 *   u32       version of the body layout
 *   u32       reserved (0)
 *   body      format-defined
 *   u32       CRC-32 (IEEE) of every byte before it
 *
 * The footer is the image's content CRC (sealedCrc).  A CRC of the
 * whole image, footer included, is the CRC-32 residue, one constant
 * for every valid image: it can never serve as an identity.
 */

#ifndef LTP_COMMON_FILE_IO_HH
#define LTP_COMMON_FILE_IO_HH

#include <cstdint>
#include <string>

#include "common/binio.hh"

namespace ltp {

/// @name Sealed container
/// @{

/** Frame @p body as magic + version + reserved 0 + body + CRC. */
std::string seal(const char (&magic)[8], std::uint32_t version,
                 const std::string &body);

/**
 * Check a sealed image's size, magic, version, reserved word and CRC.
 * @return a reader bounded to the body (no copy; the image must
 *         outlive it), which the body decoder must consume exactly.
 * @throws std::runtime_error "<what>: <defect>" on the first defect.
 */
ByteReader openSealed(const std::string &image, const char (&magic)[8],
                      std::uint32_t version, const std::string &what);

/** The content CRC (footer) of an image openSealed accepted. */
std::uint32_t sealedCrc(const std::string &image);

/// @}

/// @name Whole files
/// @{

/**
 * Read the whole file at @p path.
 * @throws std::runtime_error "cannot read '<path>': <OS error>" (a
 *         missing path, a directory, a permission or I/O error).
 */
std::string readFile(const std::string &path);

/** readFile for probes where a missing file is normal (the result
 *  cache): @return false, without throwing, when it cannot read. */
bool tryReadFile(const std::string &path, std::string *out);

/**
 * Replace the file at @p path with @p bytes: write `<path>.tmp.<pid>.<n>`
 * and rename it over @p path, so a reader sees the old file or the new
 * one, never a torn one, and a hard-linked file is never modified in
 * place.  No fsync.
 * @throws std::runtime_error naming the path and the OS error; no temp
 *         file is left behind.
 */
void writeFileAtomic(const std::string &path, const std::string &bytes);

/// @}

} // namespace ltp

#endif // LTP_COMMON_FILE_IO_HH
