// Known-good fixture for loft-steady-state-alloc: sorted-list inserts.
//
// An insert in a steady-state-hot function is accepted when the line
// (or the comment line above it) says where the list's capacity comes
// from; one outside a hot function needs no note.
//
// Expected: the check stays silent.

struct Booking
{
    unsigned long slot = 0;
};

template <typename T>
struct List
{
    void reserve(unsigned long);
    T *begin();
    T *insert(T *pos, const T &v);
};

struct Scheduler
{
    List<Booking> bookings_;

    void
    setup()
    {
        // Not annotated hot: construction-time growth is the point.
        bookings_.reserve(16);
        bookings_.insert(bookings_.begin(), Booking{});
    }

    // loft-tidy: steady-state-hot
    void
    book(const Booking &b)
    {
        // loft-tidy: pooled(reserved in setup(); grows past its peak)
        bookings_.insert(bookings_.begin(), b);
    }
};
